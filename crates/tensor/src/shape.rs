//! Row-major shape/stride arithmetic shared by dense and sparse tensors.

/// Total number of elements for `dims` (product of all dimensions).
pub fn num_elements(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Row-major strides (last mode fastest): `strides[i] = Π_{j>i} dims[j]`.
pub fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

/// Linear (row-major) offset of multi-index `idx` within `dims`.
///
/// # Panics
/// Debug-asserts bounds; release builds rely on callers validating.
pub fn linear_index(dims: &[usize], idx: &[usize]) -> usize {
    debug_assert_eq!(dims.len(), idx.len());
    let mut lin = 0usize;
    for (d, i) in dims.iter().zip(idx) {
        debug_assert!(i < d, "index {i} out of bounds for dim {d}");
        lin = lin * d + i;
    }
    lin
}

/// Inverse of [`linear_index`]: recovers the multi-index from `lin`.
pub fn multi_index(dims: &[usize], mut lin: usize) -> Vec<usize> {
    let mut idx = vec![0usize; dims.len()];
    for i in (0..dims.len()).rev() {
        let d = dims[i];
        idx[i] = lin % d;
        lin /= d;
    }
    debug_assert_eq!(lin, 0, "linear index out of range");
    idx
}

/// Advances `idx` to the next multi-index of `dims` in row-major order
/// (last mode fastest), wrapping to all zeros after the last one — the
/// allocation-free step of a walk that visits indices in sequence.
pub fn advance_index(dims: &[usize], idx: &mut [usize]) {
    debug_assert_eq!(dims.len(), idx.len());
    for (i, &d) in idx.iter_mut().zip(dims).rev() {
        *i += 1;
        if *i < d {
            return;
        }
        *i = 0;
    }
}

/// Iterator over all multi-indices of `dims` in row-major order.
///
/// Allocates one index buffer and yields it by value per step; intended for
/// tests and small shapes (hot paths use [`linear_index`] arithmetic
/// directly).
pub fn iter_indices(dims: &[usize]) -> impl Iterator<Item = Vec<usize>> + '_ {
    let total = num_elements(dims);
    (0..total).map(move |lin| multi_index(dims, lin))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn linear_and_multi_roundtrip() {
        let dims = [3, 4, 5];
        for lin in 0..num_elements(&dims) {
            let idx = multi_index(&dims, lin);
            assert_eq!(linear_index(&dims, &idx), lin);
        }
    }

    #[test]
    fn linear_index_matches_strides() {
        let dims = [2, 3, 4];
        let s = strides(&dims);
        let idx = [1, 2, 3];
        let manual: usize = idx.iter().zip(&s).map(|(i, st)| i * st).sum();
        assert_eq!(linear_index(&dims, &idx), manual);
    }

    #[test]
    fn advance_index_steps_like_multi_index_and_wraps() {
        let dims = [3, 1, 4, 2];
        let mut idx = vec![0usize; dims.len()];
        for lin in 0..num_elements(&dims) {
            assert_eq!(idx, multi_index(&dims, lin));
            advance_index(&dims, &mut idx);
        }
        assert_eq!(idx, vec![0; dims.len()]);
        advance_index(&[], &mut []);
    }

    #[test]
    fn iter_indices_visits_all_in_order() {
        let dims = [2, 2];
        let all: Vec<Vec<usize>> = iter_indices(&dims).collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn num_elements_edge_cases() {
        assert_eq!(num_elements(&[]), 1);
        assert_eq!(num_elements(&[0, 5]), 0);
        assert_eq!(num_elements(&[2, 3]), 6);
    }
}
