#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
//! Sparse symmetric LDLᵀ factorization with a fill-reducing ordering.
//!
//! MNA matrices of coupled RC interconnect are structurally sparse
//! symmetric positive-definite systems: a resistor tree contributes a
//! tridiagonal-like pattern, coupling capacitors add a handful of
//! off-tree entries. Factoring them densely costs O(n³) per step matrix;
//! the up-looking LDLᵀ here costs O(nnz(L)) per numeric factorization —
//! for an RC *tree* under the minimum-degree ordering, nnz(L) equals the
//! edge count, i.e. **zero fill-in**.
//!
//! The factorization is split the standard way so batch workloads pay the
//! structural analysis once:
//!
//! 1. [`LdlSymbolic::analyze`] — fill-reducing (minimum-degree)
//!    permutation, elimination tree, per-column fill counts. Depends only
//!    on the sparsity *pattern*; reused across every timestep matrix
//!    `G + C/dt` sharing the pattern.
//! 2. [`LdlSymbolic::factor`] — numeric factorization allocating the
//!    `L`/`D` storage once.
//! 3. [`LdlFactors::refactor`] — numeric-only refactorization **in
//!    place** for new matrix values on the same pattern (a changed `dt`,
//!    a horizon retry). Allocation-free.
//! 4. [`LdlFactors::solve_into`] — forward/diagonal/backward
//!    substitution into caller buffers. Allocation-free.
//!
//! The kernel is the classic up-looking method (cf. the SuiteSparse LDL
//! algorithm): row `k` of `L` is computed by a sparse triangular solve
//! whose nonzero pattern is read off the elimination tree, so the work is
//! proportional to the entries touched, never to `n²`.
//!
//! # Examples
//!
//! ```
//! use xtalk_linalg::sparse::Triplets;
//! use xtalk_linalg::LdlSymbolic;
//!
//! // 3-node resistive chain: tridiagonal SPD.
//! let mut t = Triplets::new(3, 3);
//! for i in 0..3 {
//!     t.push(i, i, 2.0);
//! }
//! for i in 0..2 {
//!     t.push(i, i + 1, -1.0);
//!     t.push(i + 1, i, -1.0);
//! }
//! let a = t.to_csr();
//! let sym = LdlSymbolic::analyze(&a).unwrap();
//! let f = sym.factor(&a).unwrap();
//! let x = f.solve(&[1.0, 0.0, 0.0]).unwrap();
//! // Residual check: A·x == b.
//! let r = a.mul_vec(&x).unwrap();
//! assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12);
//! ```

use crate::sparse::Csr;
use crate::LinalgError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, BTreeSet};

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// Diagonal pivots with magnitude below this are reported singular —
/// the same absolute floor the dense LU uses, so the two solvers map the
/// same degenerate systems to [`LinalgError::Singular`].
const PIVOT_EPS: f64 = 1e-300;

/// Minimum-degree ordering of a symmetric sparsity pattern.
///
/// Greedy quotient-graph elimination: repeatedly eliminate the vertex of
/// smallest current degree (ties broken by smallest index, so the result
/// is deterministic), connecting its neighbors into a clique. On a tree
/// this eliminates leaves first and produces **no fill at all**; coupling
/// caps that close cycles cost only local clique edges.
fn min_degree_order(a: &Csr) -> (Vec<usize>, Vec<usize>) {
    let n = a.rows();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if c != r {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }
    // Lazy-deletion heap of (degree, vertex); stale entries (degree no
    // longer current) are skipped on pop.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != adj[v].len() {
            continue;
        }
        eliminated[v] = true;
        perm.push(v);
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &neigh {
            adj[u].remove(&v);
        }
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let (u, w) = (neigh[i], neigh[j]);
                if adj[u].insert(w) {
                    adj[w].insert(u);
                }
            }
        }
        for &u in &neigh {
            if !eliminated[u] {
                heap.push(Reverse((adj[u].len(), u)));
            }
        }
    }
    let mut pinv = vec![0usize; n];
    for (k, &v) in perm.iter().enumerate() {
        pinv[v] = k;
    }
    (perm, pinv)
}

/// Symbolic LDLᵀ analysis of a symmetric sparsity pattern: fill-reducing
/// permutation, elimination tree, and the exact column pointers of `L`.
///
/// Depends only on *which* entries are nonzero, so one analysis serves
/// every matrix sharing the pattern — `G`, `G + C/dt` at any `dt`, and
/// every horizon-retry refactorization.
#[derive(Debug, Clone)]
pub struct LdlSymbolic {
    n: usize,
    /// `perm[k]` = original index eliminated at step `k`.
    perm: Vec<usize>,
    /// `pinv[original]` = elimination position.
    pinv: Vec<usize>,
    /// Elimination tree over the permuted matrix (`NONE` = root).
    parent: Vec<usize>,
    /// Column pointers of `L` (`n + 1` entries); `lp[n]` = nnz(L).
    lp: Vec<usize>,
}

impl LdlSymbolic {
    /// Analyzes the pattern of `a` (must be square with a symmetric
    /// pattern — the stamped MNA matrices always are; use
    /// [`Csr::is_symmetric`] to verify arbitrary inputs).
    ///
    /// Records the predicted fill-in in the `linalg.ldl.fill` histogram
    /// (performance class: the value depends on which solver path a run
    /// selects, not on the workload itself).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] when `a` is not square.
    pub fn analyze(a: &Csr) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let (perm, pinv) = min_degree_order(a);

        // Elimination tree and exact per-column counts of L, via the
        // classic path-compression-free traversal: for every upper entry
        // (i, k) of the permuted matrix, walk i's root path until a node
        // already flagged for step k.
        let mut parent = vec![NONE; n];
        let mut lnz = vec![0usize; n];
        let mut flag = vec![NONE; n];
        for k in 0..n {
            flag[k] = k;
            for (c, _) in a.row(perm[k]) {
                let mut i = pinv[c];
                if i >= k {
                    continue;
                }
                while flag[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }
        xtalk_obs::histogram!(perf: "linalg.ldl.fill").record(lp[n] as u64);
        Ok(LdlSymbolic {
            n,
            perm,
            pinv,
            parent,
            lp,
        })
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of strictly-lower-triangular nonzeros `L` will hold
    /// (0 for a tree under the fill-reducing ordering).
    pub fn fill_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// The fill-reducing permutation (`perm[k]` = original index
    /// eliminated at step `k`).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Numerically factors `a`, which must be symmetric with the analyzed
    /// pattern (a subset pattern is fine — missing entries are zeros).
    /// Allocates the `L`/`D` storage; reuse it across value changes with
    /// [`LdlFactors::refactor`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] — `a` has a different dimension.
    /// * [`LinalgError::NonFinite`] — `a` contains NaN/∞.
    /// * [`LinalgError::Singular`] — a diagonal pivot vanished (the
    ///   matrix is singular or far from positive definite).
    pub fn factor(&self, a: &Csr) -> Result<LdlFactors, LinalgError> {
        let nnz = self.fill_nnz();
        let mut f = LdlFactors {
            sym: self.clone(),
            li: vec![0usize; nnz],
            lx: vec![0.0; nnz],
            d: vec![0.0; self.n],
            y: vec![0.0; self.n],
            pattern: vec![0usize; self.n],
            flag: vec![NONE; self.n],
            lnz: vec![0usize; self.n],
        };
        f.refactor(a)?;
        Ok(f)
    }
}

/// Numeric LDLᵀ factors `P·A·Pᵀ = L·D·Lᵀ` plus the scratch needed to
/// refactor and solve without allocating.
///
/// Obtained from [`LdlSymbolic::factor`]; [`LdlFactors::refactor`]
/// rewrites the numeric content in place for new values on the same
/// pattern, and [`LdlFactors::solve_into`] solves into caller buffers.
#[derive(Debug, Clone)]
pub struct LdlFactors {
    sym: LdlSymbolic,
    /// Row indices of L's strictly-lower entries, column-major per `lp`.
    li: Vec<usize>,
    /// Values of L's strictly-lower entries (unit diagonal implied).
    lx: Vec<f64>,
    /// The diagonal D.
    d: Vec<f64>,
    /// Sparse accumulator for the up-looking row solve.
    y: Vec<f64>,
    /// Reach stack (row-pattern workspace).
    pattern: Vec<usize>,
    /// Visit marks, keyed by elimination step.
    flag: Vec<usize>,
    /// Entries currently stored per column of L.
    lnz: Vec<usize>,
}

impl LdlFactors {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Number of strictly-lower-triangular nonzeros in `L`.
    pub fn fill_nnz(&self) -> usize {
        self.sym.fill_nnz()
    }

    /// The fill-reducing permutation the factors live in (`perm[k]` =
    /// original index eliminated at step `k`).
    pub fn perm(&self) -> &[usize] {
        &self.sym.perm
    }

    /// Column pointers of `L` (`n + 1` entries): column `j` holds
    /// entries `col_ptr[j]..col_ptr[j + 1]` of [`LdlFactors::row_idx`] and
    /// [`LdlFactors::lower`].
    pub fn col_ptr(&self) -> &[usize] {
        &self.sym.lp
    }

    /// Row index of every strictly-lower entry of `L`, ascending within
    /// each column. Depends only on the analyzed pattern.
    pub fn row_idx(&self) -> &[usize] {
        &self.li
    }

    /// Values of the strictly-lower entries of `L` (unit diagonal
    /// implied), in [`LdlFactors::row_idx`] order.
    pub fn lower(&self) -> &[f64] {
        &self.lx
    }

    /// The diagonal `D`, in elimination order.
    pub fn diag(&self) -> &[f64] {
        &self.d
    }

    /// Re-runs the numeric factorization for new values of `a` on the
    /// analyzed pattern, reusing every buffer — the per-`dt` cost in the
    /// simulator's stepping-matrix cache. Allocation-free.
    ///
    /// On error the factors are left invalid and must be refactored
    /// before the next solve.
    ///
    /// # Errors
    ///
    /// As [`LdlSymbolic::factor`].
    pub fn refactor(&mut self, a: &Csr) -> Result<(), LinalgError> {
        let n = self.sym.n;
        if a.rows() != n || a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                found: format!("matrix of shape {}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}"),
            });
        }
        if !a.values().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite {
                context: "LDL input matrix".to_string(),
            });
        }
        xtalk_obs::counter!(perf: "linalg.ldl.factor").add(1);
        let (perm, pinv, parent, lp) =
            (&self.sym.perm, &self.sym.pinv, &self.sym.parent, &self.sym.lp);
        self.y.fill(0.0);
        self.flag.fill(NONE);
        self.lnz.fill(0);
        for k in 0..n {
            // Pattern of row k of L: for every upper entry (i, k) of the
            // permuted matrix, the reach of i in the elimination tree.
            // `pattern[top..n]` ends up holding it in topological order.
            let mut top = n;
            self.flag[k] = k;
            for (c, v) in a.row(perm[k]) {
                let i0 = pinv[c];
                if i0 > k {
                    continue;
                }
                self.y[i0] += v;
                let mut len = 0;
                let mut i = i0;
                while self.flag[i] != k {
                    self.pattern[len] = i;
                    len += 1;
                    self.flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.pattern[top] = self.pattern[len];
                }
            }
            // Up-looking sparse triangular solve along the pattern.
            self.d[k] = self.y[k];
            self.y[k] = 0.0;
            for t in top..n {
                let i = self.pattern[t];
                let yi = self.y[i];
                self.y[i] = 0.0;
                let p2 = lp[i] + self.lnz[i];
                for p in lp[i]..p2 {
                    self.y[self.li[p]] -= self.lx[p] * yi;
                }
                let l_ki = yi / self.d[i];
                self.d[k] -= l_ki * yi;
                self.li[p2] = k;
                self.lx[p2] = l_ki;
                self.lnz[i] += 1;
            }
            // A NaN pivot (overflow products of finite inputs) must take
            // the singular branch too, hence the explicit is_nan arm.
            if self.d[k].abs() < PIVOT_EPS || self.d[k].is_nan() {
                return Err(LinalgError::Singular { pivot: k });
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` into caller-provided buffers: `x` receives the
    /// solution, `scratch` is an `n`-length work vector (the permuted
    /// intermediate). Allocation-free; `b`, `x` and `scratch` must be
    /// three distinct buffers.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when any buffer has the wrong
    /// length.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), LinalgError> {
        let n = self.sym.n;
        if b.len() != n || x.len() != n || scratch.len() != n {
            return Err(LinalgError::ShapeMismatch {
                found: format!(
                    "rhs length {} / out length {} / scratch length {}",
                    b.len(),
                    x.len(),
                    scratch.len()
                ),
                expected: format!("all of length {n}"),
            });
        }
        let (perm, lp) = (&self.sym.perm, &self.sym.lp);
        // ŷ = P·b.
        for i in 0..n {
            scratch[i] = b[perm[i]];
        }
        // L·z = ŷ (unit lower triangular, column sweep).
        for j in 0..n {
            let zj = scratch[j];
            for p in lp[j]..lp[j + 1] {
                scratch[self.li[p]] -= self.lx[p] * zj;
            }
        }
        // D·w = z.
        for j in 0..n {
            scratch[j] /= self.d[j];
        }
        // Lᵀ·v = w (row sweep, bottom up).
        for j in (0..n).rev() {
            let mut acc = scratch[j];
            for p in lp[j]..lp[j + 1] {
                acc -= self.lx[p] * scratch[self.li[p]];
            }
            scratch[j] = acc;
        }
        // x = Pᵀ·v.
        for i in 0..n {
            x[perm[i]] = scratch[i];
        }
        Ok(())
    }

    /// Solves `A·x = b`, allocating the result and scratch (convenience
    /// wrapper for tests and one-off solves; hot paths use
    /// [`LdlFactors::solve_into`]).
    ///
    /// # Errors
    ///
    /// As [`LdlFactors::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.sym.n;
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.solve_into(b, &mut x, &mut scratch)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::Matrix;

    /// Resistive-chain SPD matrix: 2 on the diagonal, -1 off.
    fn chain(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + i as f64 * 0.01);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        t.to_csr()
    }

    /// Star tree with a cross-coupling entry closing one cycle.
    fn star_with_coupling(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        t.push(0, 0, n as f64);
        for i in 1..n {
            t.push(i, i, 3.0);
            t.push(0, i, -1.0);
            t.push(i, 0, -1.0);
        }
        t.push(1, n - 1, -0.5);
        t.push(n - 1, 1, -0.5);
        t.to_csr()
    }

    fn assert_solves_like_lu(a: &Csr, b: &[f64], tol: f64) {
        let sym = LdlSymbolic::analyze(a).unwrap();
        let f = sym.factor(a).unwrap();
        let x = f.solve(b).unwrap();
        let x_lu = a.to_dense().lu().unwrap().solve(b).unwrap();
        for (s, d) in x.iter().zip(&x_lu) {
            assert!((s - d).abs() <= tol * (1.0 + d.abs()), "{s} vs {d}");
        }
    }

    #[test]
    fn chain_matches_dense_lu() {
        let a = chain(17);
        let b: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        assert_solves_like_lu(&a, &b, 1e-12);
    }

    #[test]
    fn tree_ordering_produces_zero_fill() {
        // A chain is a tree: the min-degree ordering must yield exactly
        // one off-diagonal per eliminated column — n-1 entries, no fill.
        let a = chain(32);
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert_eq!(sym.fill_nnz(), 31);
    }

    #[test]
    fn coupling_cycle_still_solves() {
        let a = star_with_coupling(9);
        let b: Vec<f64> = (0..9).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_solves_like_lu(&a, &b, 1e-12);
    }

    #[test]
    fn refactor_reuses_structure_for_new_values() {
        let a = chain(12);
        let sym = LdlSymbolic::analyze(&a).unwrap();
        let mut f = sym.factor(&a).unwrap();
        // Same pattern, scaled values (a different dt, in simulator terms).
        let mut t = Triplets::new(12, 12);
        for r in 0..12 {
            for (c, v) in a.row(r) {
                t.push(r, c, v * 3.5);
            }
        }
        let a2 = t.to_csr();
        f.refactor(&a2).unwrap();
        let b = vec![1.0; 12];
        let x = f.solve(&b).unwrap();
        let x_lu = a2.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in x.iter().zip(&x_lu) {
            assert!((s - d).abs() < 1e-12 * (1.0 + d.abs()));
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // Zero row/column (a floating node with no element at all).
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert!(matches!(
            sym.factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_finite_is_rejected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(1, 1, 1.0);
        let a = t.to_csr();
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert!(matches!(
            sym.factor(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn not_square_is_rejected() {
        let t = Triplets::new(2, 3);
        assert!(matches!(
            LdlSymbolic::analyze(&t.to_csr()),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_into_rejects_bad_lengths() {
        let a = chain(4);
        let f = LdlSymbolic::analyze(&a).unwrap().factor(&a).unwrap();
        let mut x = [0.0; 4];
        let mut s = [0.0; 3];
        assert!(f.solve_into(&[1.0; 4], &mut x, &mut s).is_err());
        assert!(f.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn identity_permutation_roundtrip() {
        // Dense-ish random SPD via AᵀA + I on a small pattern exercises
        // fill-in paths (min-degree cannot avoid fill on a dense block).
        let m = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 5.0, 1.0, 0.5],
            &[0.5, 1.0, 6.0, 1.0],
            &[0.0, 0.5, 1.0, 7.0],
        ])
        .unwrap();
        let a = Csr::from_dense(&m);
        let b = [1.0, -2.0, 3.0, -4.0];
        assert_solves_like_lu(&a, &b, 1e-12);
    }
}
