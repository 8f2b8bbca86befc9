//! Wire format for work donation (§4.2).
//!
//! A busy node donating work ships whole tries; the receiver re-roots
//! them into its own local trie. Snapshots store tries and CSF layouts
//! with the same codecs. Encoding is little-endian `u32` words over
//! [`bytes`] buffers.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::csf::Csf;
use crate::trie::HostTrie;

/// Errors from decoding a donation payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than its header claims.
    Truncated,
    /// Header fields are internally inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Corrupt(what) => write!(f, "payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a full host trie: `[num_levels, level_ends…, len, pa…, ca…]`.
pub fn encode_trie(t: &HostTrie) -> Bytes {
    let mut b = BytesMut::with_capacity(4 * (2 + t.levels.len() + 2 * t.len()));
    b.put_u32_le(t.levels.len() as u32);
    for l in &t.levels {
        b.put_u32_le(l.end as u32);
    }
    b.put_u32_le(t.len() as u32);
    for &p in &t.pa {
        b.put_u32_le(p);
    }
    for &c in &t.ca {
        b.put_u32_le(c);
    }
    b.freeze()
}

/// Decodes [`encode_trie`] output.
pub fn decode_trie(mut buf: Bytes) -> Result<HostTrie, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let num_levels = buf.get_u32_le() as usize;
    let header_words = num_levels
        .checked_add(1)
        .and_then(|w| w.checked_mul(4))
        .ok_or(WireError::Corrupt("level count overflows"))?;
    if buf.remaining() < header_words {
        return Err(WireError::Truncated);
    }
    let mut levels = Vec::with_capacity(num_levels);
    let mut start = 0usize;
    for _ in 0..num_levels {
        let end = buf.get_u32_le() as usize;
        if end < start {
            return Err(WireError::Corrupt("level ends not monotone"));
        }
        levels.push(start..end);
        start = end;
    }
    let len = buf.get_u32_le() as usize;
    if levels.last().map_or(0, |l| l.end) != len {
        return Err(WireError::Corrupt("length disagrees with level ends"));
    }
    let body = len
        .checked_mul(8)
        .ok_or(WireError::Corrupt("node count overflows"))?;
    if buf.remaining() < body {
        return Err(WireError::Truncated);
    }
    let pa = (0..len).map(|_| buf.get_u32_le()).collect();
    let ca = (0..len).map(|_| buf.get_u32_le()).collect();
    Ok(HostTrie { pa, ca, levels })
}

/// Encodes a CSF path set:
/// `[num_levels, level_lens…, node_ids…, child_index arrays…]`.
///
/// Every level's length is written up front, so the index arrays (whose
/// lengths are `level_lens[l] + 1` for all but the last level) carry no
/// redundant headers. The encoding is canonical: a decoded CSF
/// re-encodes byte-identically.
pub fn encode_csf(c: &Csf) -> Bytes {
    let nl = c.num_levels();
    let mut b = BytesMut::with_capacity(4 * (1 + nl + c.words_used()));
    b.put_u32_le(nl as u32);
    for ids in &c.node_ids {
        b.put_u32_le(ids.len() as u32);
    }
    for ids in &c.node_ids {
        for &v in ids {
            b.put_u32_le(v);
        }
    }
    for index in &c.child_index {
        for &v in index {
            b.put_u32_le(v);
        }
    }
    b.freeze()
}

/// Decodes [`encode_csf`] output, validating every structural invariant
/// of [`Csf`]: index arrays are monotone, start at 0, and end exactly at
/// the next level's length.
pub fn decode_csf(mut buf: Bytes) -> Result<Csf, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let nl = buf.get_u32_le() as usize;
    let header = nl
        .checked_mul(4)
        .ok_or(WireError::Corrupt("csf level count overflows"))?;
    if buf.remaining() < header {
        return Err(WireError::Truncated);
    }
    let lens: Vec<usize> = (0..nl).map(|_| buf.get_u32_le() as usize).collect();
    // Total payload words: node ids plus (len + 1)-sized index arrays
    // for every level with a successor. All checked — the lengths came
    // off the wire.
    let mut need = 0usize;
    for (l, &len) in lens.iter().enumerate() {
        let idx = if l + 1 < nl { len + 1 } else { 0 };
        need = need
            .checked_add(len)
            .and_then(|w| w.checked_add(idx))
            .ok_or(WireError::Corrupt("csf size overflows"))?;
    }
    let need_bytes = need
        .checked_mul(4)
        .ok_or(WireError::Corrupt("csf size overflows"))?;
    if buf.remaining() < need_bytes {
        return Err(WireError::Truncated);
    }
    let node_ids: Vec<Vec<u32>> = lens
        .iter()
        .map(|&len| (0..len).map(|_| buf.get_u32_le()).collect())
        .collect();
    let mut child_index: Vec<Vec<u32>> = Vec::with_capacity(nl.saturating_sub(1));
    for l in 0..nl.saturating_sub(1) {
        let index: Vec<u32> = (0..lens[l] + 1).map(|_| buf.get_u32_le()).collect();
        if index.first() != Some(&0) {
            return Err(WireError::Corrupt("csf index must start at 0"));
        }
        if index.windows(2).any(|w| w[0] > w[1]) {
            return Err(WireError::Corrupt("csf index not monotone"));
        }
        if *index.last().expect("len + 1 >= 1 entries") as usize != lens[l + 1] {
            return Err(WireError::Corrupt("csf index does not cover next level"));
        }
        child_index.push(index);
    }
    Ok(Csf {
        node_ids,
        child_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::NO_PARENT;

    fn sample() -> HostTrie {
        HostTrie {
            pa: vec![NO_PARENT, NO_PARENT, 0, 1, 0],
            ca: vec![10, 11, 3, 2, 4],
            levels: vec![0..2, 2..5],
        }
    }

    #[test]
    fn trie_roundtrip() {
        let t = sample();
        let decoded = decode_trie(encode_trie(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn empty_trie_roundtrip() {
        let t = HostTrie::new();
        assert_eq!(decode_trie(encode_trie(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_trie_rejected() {
        let enc = encode_trie(&sample());
        let cut = enc.slice(0..enc.len() - 4);
        assert_eq!(decode_trie(cut), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_length_rejected() {
        let t = sample();
        let mut raw = BytesMut::from(&encode_trie(&t)[..]);
        // Overwrite the len field (after num_levels + level ends).
        let len_off = 4 * (1 + t.levels.len());
        raw[len_off..len_off + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_trie(raw.freeze()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn csf_roundtrip() {
        let c = Csf::from_host_trie(&sample());
        let enc = encode_csf(&c);
        let back = decode_csf(enc.clone()).unwrap();
        assert_eq!(back, c);
        assert_eq!(encode_csf(&back), enc);
    }

    #[test]
    fn empty_csf_roundtrip() {
        let c = Csf::from_host_trie(&HostTrie::new());
        assert_eq!(decode_csf(encode_csf(&c)).unwrap(), c);
    }

    #[test]
    fn csf_truncation_rejected() {
        let enc = encode_csf(&Csf::from_host_trie(&sample()));
        for cut in 0..enc.len() {
            assert_eq!(
                decode_csf(enc.slice(0..cut)),
                Err(WireError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn csf_bad_index_rejected() {
        let c = Csf::from_host_trie(&sample());
        let enc = encode_csf(&c);
        // The first child_index word sits after num_levels, level lens,
        // and all node ids; it must be 0.
        let off = 4 * (1 + c.num_levels() + c.node_ids.iter().map(Vec::len).sum::<usize>());
        let mut raw = enc.to_vec();
        raw[off..off + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_csf(Bytes::from(raw)),
            Err(WireError::Corrupt(_))
        ));
        // A last index entry that overshoots the next level is corrupt.
        let mut raw = enc.to_vec();
        let last = raw.len() - 4;
        raw[last..].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_csf(Bytes::from(raw)),
            Err(WireError::Corrupt(_))
        ));
    }
}
