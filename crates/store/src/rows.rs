//! Shared construction of sorted, deduplicated fixed-width row arrays.
//!
//! Every exact backend (raw, delta-coded, indexed) starts from the same
//! representation: the prefixes as a flat array of `width`-byte rows, sorted
//! and deduplicated.  Building that array through a `Vec<Vec<u8>>` costs one
//! heap allocation *per prefix* — ruinous at the 1M-prefix scale the
//! `benchmark/` workloads drive — so the rows are collected into a single flat
//! buffer and sorted through a chunk-index permutation instead: O(1)
//! allocations regardless of the number of prefixes.

use sb_hash::{Prefix, PrefixLen};

/// Collects `prefixes` into a flat byte array of sorted, deduplicated
/// `prefix_len.bytes()`-wide rows.
///
/// # Panics
///
/// Panics if a prefix does not have length `prefix_len`, or if more than
/// `u32::MAX` prefixes are supplied (far beyond any deployed list).
pub(crate) fn sorted_rows(
    prefix_len: PrefixLen,
    prefixes: impl IntoIterator<Item = Prefix>,
) -> Vec<u8> {
    let width = prefix_len.bytes();
    let iter = prefixes.into_iter();
    let mut scratch: Vec<u8> = Vec::with_capacity(iter.size_hint().0.saturating_mul(width));
    for p in iter {
        assert_eq!(p.len(), prefix_len, "prefix length mismatch");
        scratch.extend_from_slice(p.as_bytes());
    }
    let count = scratch.len() / width;
    assert!(count <= u32::MAX as usize, "too many prefixes");

    let row = |i: u32| &scratch[i as usize * width..(i as usize + 1) * width];
    let mut order: Vec<u32> = (0..count as u32).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));

    let mut data = Vec::with_capacity(scratch.len());
    let mut prev: Option<u32> = None;
    for &i in &order {
        if prev.is_some_and(|p| row(p) == row(i)) {
            continue;
        }
        data.extend_from_slice(row(i));
        prev = Some(i);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_dedups() {
        let rows = sorted_rows(
            PrefixLen::L32,
            [7u32, 3, 7, 1, u32::MAX, 3]
                .into_iter()
                .map(Prefix::from_u32),
        );
        let values: Vec<u32> = rows
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(values, [1, 3, 7, u32::MAX]);
    }

    #[test]
    fn empty_input_yields_empty_rows() {
        assert!(sorted_rows(PrefixLen::L64, std::iter::empty()).is_empty());
    }

    #[test]
    #[should_panic(expected = "prefix length mismatch")]
    fn wrong_length_panics() {
        let _ = sorted_rows(PrefixLen::L64, [Prefix::from_u32(1)]);
    }
}
