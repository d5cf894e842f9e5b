#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
//! The permuted-space stepping kernel behind every sparse fixed-step
//! march.
//!
//! One fixed step on the sparse backend is a matvec with the stepping
//! matrix followed by an LDLᵀ solve of `P·A·Pᵀ = L·D·Lᵀ`. The kernel keeps
//! the node state in elimination order, so a step needs no `P·b` gather
//! and no `Pᵀ` scatter:
//!
//! * the stepping matrix is stored permuted — row `i` is the original
//!   row `perm[i]` — with each row's entries kept in their *original*
//!   column order, so every row sum accumulates exactly as
//!   [`Csr::mul_vec_into`] does;
//! * the forward sweep, the diagonal scaling (folded into the forward
//!   sweep: column `j` is final when it is read) and the backward sweep
//!   replay [`LdlFactors::solve_into`] operation for operation.
//!
//! A kernel march is therefore bit-identical to the matvec + solve pair.
//!
//! The kernel is generic over a lane count `K`. `K` independent systems
//! that share one sparsity pattern — hence one ordering, one `L` pattern
//! and one stepping pattern — march in lockstep over `[f64; K]` values,
//! each lane doing the same IEEE operations in the same order as a
//! one-lane march. A step is two dependent triangular sweeps, bound by
//! latency rather than throughput; the lanes fill that latency.
//!
//! [`Csr::mul_vec_into`]: xtalk_linalg::sparse::Csr::mul_vec_into
//! [`LdlFactors::solve_into`]: xtalk_linalg::LdlFactors::solve_into

use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::NodeId;
use xtalk_linalg::sparse::Csr;
use xtalk_linalg::LdlFactors;

/// Lanes per batched march. Picked by measurement on the stock screening
/// deck (80-node islands): 8 lanes beat 4 and matched 16, with half the
/// lane values to keep in cache.
pub const BATCH_LANES: usize = 8;

fn to_u32(x: usize) -> u32 {
    u32::try_from(x).expect("stepping systems stay below 2^32 entries")
}

/// Structure half of the kernel: the permuted stepping pattern and the
/// `L` pattern, as `u32` indices. Depends only on the G∪C union pattern,
/// so one plan serves every system — and every lane — sharing it.
#[derive(Debug)]
pub(crate) struct StepPlan {
    n: usize,
    /// `perm[i]` = original node at elimination position `i`.
    perm: Vec<u32>,
    /// `pinv[node]` = elimination position of an original node.
    pinv: Vec<u32>,
    /// Row pointers of the permuted stepping matrix.
    srow: Vec<u32>,
    /// Permuted column of each stepping entry (original column order
    /// within each row).
    scol: Vec<u32>,
    /// Position of each stepping entry in the original CSR values.
    ssrc: Vec<u32>,
    /// Column pointers of `L`.
    lp: Vec<u32>,
    /// Row indices of `L`'s strictly-lower entries.
    li: Vec<u32>,
}

impl StepPlan {
    /// Builds the plan for stepping matrices on `pattern`, factored as
    /// `factors` (whose ordering and `L` pattern the plan adopts).
    pub(crate) fn new(pattern: &Csr, factors: &LdlFactors) -> StepPlan {
        let n = pattern.rows();
        let perm: Vec<u32> = factors.perm().iter().map(|&p| to_u32(p)).collect();
        let mut pinv = vec![0u32; n];
        for (i, &p) in perm.iter().enumerate() {
            pinv[p as usize] = to_u32(i);
        }
        let (row_ptr, col_idx) = (pattern.row_ptr(), pattern.col_idx());
        let mut srow = Vec::with_capacity(n + 1);
        let mut scol = Vec::with_capacity(pattern.nnz());
        let mut ssrc = Vec::with_capacity(pattern.nnz());
        srow.push(0);
        for &r in &perm {
            for k in row_ptr[r as usize]..row_ptr[r as usize + 1] {
                scol.push(pinv[col_idx[k]]);
                ssrc.push(to_u32(k));
            }
            srow.push(to_u32(scol.len()));
        }
        StepPlan {
            n,
            perm,
            pinv,
            srow,
            scol,
            ssrc,
            lp: factors.col_ptr().iter().map(|&p| to_u32(p)).collect(),
            li: factors.row_idx().iter().map(|&i| to_u32(i)).collect(),
        }
    }

    /// System dimension.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Elimination-order row of an original node.
    pub(crate) fn row_of(&self, node: usize) -> usize {
        self.pinv[node] as usize
    }

    /// Writes lane `lane` of `state` from an original-order vector.
    pub(crate) fn load_state<const K: usize>(
        &self,
        lane: usize,
        v: &[f64],
        state: &mut [[f64; K]],
    ) {
        for (s, &p) in state.iter_mut().zip(&self.perm) {
            s[lane] = v[p as usize];
        }
    }

    /// Reads lane `lane` of `state` back into original order.
    pub(crate) fn store_state<const K: usize>(
        &self,
        lane: usize,
        state: &[[f64; K]],
        v: &mut [f64],
    ) {
        for (s, &p) in state.iter().zip(&self.perm) {
            v[p as usize] = s[lane];
        }
    }
}

/// Value half of the kernel for `K` lanes: the stepping matrix in plan
/// order, `L`'s strictly-lower values and `D`.
#[derive(Debug, Default)]
pub(crate) struct LaneValues<const K: usize> {
    step: Vec<[f64; K]>,
    lx: Vec<[f64; K]>,
    d: Vec<[f64; K]>,
}

impl<const K: usize> LaneValues<K> {
    /// Sizes the arrays for `plan` with every lane idle: zero stepping
    /// matrix and `L`, unit `D`, so an idle lane's state stays exactly 0.
    pub(crate) fn reset(&mut self, plan: &StepPlan) {
        self.step.clear();
        self.step.resize(plan.scol.len(), [0.0; K]);
        self.lx.clear();
        self.lx.resize(plan.li.len(), [0.0; K]);
        self.d.clear();
        self.d.resize(plan.n, [1.0; K]);
    }

    /// Loads lane `lane` from a stepping matrix `(c + coeff·g)·inv_dt`
    /// on the union pattern (the same elementwise formula the CSR path
    /// evaluates) and its factorization.
    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        plan: &StepPlan,
        (g_vals, c_vals): (&[f64], &[f64]),
        coeff: f64,
        inv_dt: f64,
        factors: &LdlFactors,
    ) {
        for (dst, &k) in self.step.iter_mut().zip(&plan.ssrc) {
            let k = k as usize;
            dst[lane] = (c_vals[k] + coeff * g_vals[k]) * inv_dt;
        }
        for (dst, &x) in self.lx.iter_mut().zip(factors.lower()) {
            dst[lane] = x;
        }
        for (dst, &x) in self.d.iter_mut().zip(factors.diag()) {
            dst[lane] = x;
        }
    }

    /// Copies lane 0 of a one-lane value set into lane `lane`.
    pub(crate) fn copy_lane(&mut self, lane: usize, src: &LaneValues<1>) {
        for (dst, s) in [
            (&mut self.step, &src.step),
            (&mut self.lx, &src.lx),
            (&mut self.d, &src.d),
        ] {
            for (d, s) in dst.iter_mut().zip(s) {
                d[lane] = s[0];
            }
        }
    }
}

/// Per-march state for `K` lanes, in elimination order.
#[derive(Debug, Default)]
pub(crate) struct LaneState<const K: usize> {
    /// Node voltages.
    pub(crate) v: Vec<[f64; K]>,
    /// Right-hand side, solved in place into the next state.
    s: Vec<[f64; K]>,
    /// Input terms at the current and next time point.
    b0: Vec<[f64; K]>,
    b1: Vec<[f64; K]>,
}

impl<const K: usize> LaneState<K> {
    /// Zeroes every buffer at dimension `n`.
    pub(crate) fn reset(&mut self, n: usize) {
        for buf in [&mut self.v, &mut self.s, &mut self.b0, &mut self.b1] {
            buf.clear();
            buf.resize(n, [0.0; K]);
        }
    }
}

/// One lane's inputs and outputs for a march.
#[derive(Debug)]
pub(crate) struct Lane {
    /// Value slot in the `[f64; K]` arrays.
    pub(crate) slot: usize,
    pub(crate) t0: f64,
    pub(crate) dt: f64,
    pub(crate) steps: usize,
    /// `(elimination row, 1/Rd, signal)` per stimulus.
    pub(crate) sources: Vec<(usize, f64, InputSignal)>,
    /// Elimination rows recorded after every step.
    pub(crate) probes: Vec<usize>,
    /// One trace per probe, holding the initial sample on entry.
    pub(crate) traces: Vec<Vec<f64>>,
}

impl Lane {
    /// A lane in value slot `slot` that marches from `t0` by `dt` for
    /// `steps` steps, driven by `(node, 1/Rd, signal)` sources and
    /// recording `probes`; each trace is reserved to its final length and
    /// starts with the probe's sample of the original-order state `v0`.
    pub(crate) fn new(
        plan: &StepPlan,
        slot: usize,
        (t0, dt, steps): (f64, f64, usize),
        sources: &[(usize, f64, InputSignal)],
        probes: &[NodeId],
        v0: &[f64],
    ) -> Lane {
        Lane {
            slot,
            t0,
            dt,
            steps,
            sources: sources
                .iter()
                .map(|&(node, cond, sig)| (plan.row_of(node), cond, sig))
                .collect(),
            probes: probes.iter().map(|n| plan.row_of(n.index())).collect(),
            traces: probes
                .iter()
                .map(|n| {
                    let mut trace = Vec::with_capacity(steps + 1);
                    trace.push(v0[n.index()]);
                    trace
                })
                .collect(),
        }
    }

    /// Writes this lane's input terms at time `t` into `b`: zero, then
    /// each source accumulated in stimulus order, as a dense refill
    /// would leave them (rows without a source stay 0).
    fn inject<const K: usize>(&self, t: f64, b: &mut [[f64; K]]) {
        for &(row, _, _) in &self.sources {
            b[row][self.slot] = 0.0;
        }
        for &(row, cond, sig) in &self.sources {
            b[row][self.slot] += cond * sig.value(t);
        }
    }
}

/// Marches every lane from `state.v` (already loaded) for its own step
/// count, all lanes stepping in lockstep until the longest finishes.
/// `trapezoidal` selects the scheme (`false`: backward Euler). `done` is
/// called once per lane, with its index, its slot and the state right
/// after its last step.
pub(crate) fn march<const K: usize>(
    plan: &StepPlan,
    vals: &LaneValues<K>,
    state: &mut LaneState<K>,
    lanes: &mut [Lane],
    trapezoidal: bool,
    mut done: impl FnMut(usize, usize, &[[f64; K]]),
) {
    let longest = lanes.iter().map(|l| l.steps).max().unwrap_or(0);
    for (i, lane) in lanes.iter().enumerate() {
        lane.inject(lane.t0, &mut state.b0);
        if lane.steps == 0 {
            done(i, lane.slot, &state.v);
        }
    }
    for k in 0..longest {
        for lane in lanes.iter() {
            if k < lane.steps {
                lane.inject(lane.t0 + (k + 1) as f64 * lane.dt, &mut state.b1);
            }
        }
        step(plan, vals, state, trapezoidal);
        std::mem::swap(&mut state.v, &mut state.s);
        std::mem::swap(&mut state.b0, &mut state.b1);
        for (i, lane) in lanes.iter_mut().enumerate() {
            if k >= lane.steps {
                continue;
            }
            for (trace, &row) in lane.traces.iter_mut().zip(&lane.probes) {
                trace.push(state.v[row][lane.slot]);
            }
            if k + 1 == lane.steps {
                done(i, lane.slot, &state.v);
            }
        }
    }
}

/// One step for all lanes: `s = step·v + inputs`, then `s ← A⁻¹·s`.
#[inline]
fn step<const K: usize>(
    plan: &StepPlan,
    vals: &LaneValues<K>,
    state: &mut LaneState<K>,
    trapezoidal: bool,
) {
    let n = plan.n;
    let (v, s) = (&state.v[..n], &mut state.s[..n]);
    let (b0, b1) = (&state.b0[..n], &state.b1[..n]);
    let (srow, scol, sval) = (&plan.srow[..=n], &plan.scol[..], &vals.step[..]);
    let (lp, li, lx, d) = (&plan.lp[..=n], &plan.li[..], &vals.lx[..], &vals.d[..n]);
    for i in 0..n {
        let (lo, hi) = (srow[i] as usize, srow[i + 1] as usize);
        let mut acc = [0.0; K];
        for (a, &c) in sval[lo..hi].iter().zip(&scol[lo..hi]) {
            let x = &v[c as usize];
            for l in 0..K {
                acc[l] += a[l] * x[l];
            }
        }
        let (out, p, q) = (&mut s[i], &b0[i], &b1[i]);
        if trapezoidal {
            for l in 0..K {
                out[l] = acc[l] + 0.5 * (p[l] + q[l]);
            }
        } else {
            for l in 0..K {
                out[l] = acc[l] + q[l];
            }
        }
    }
    // L·z = rhs, column sweep; z_j is final when read, so D⁻¹ applies
    // right there.
    for j in 0..n {
        let z = s[j];
        for l in 0..K {
            s[j][l] = z[l] / d[j][l];
        }
        let (lo, hi) = (lp[j] as usize, lp[j + 1] as usize);
        for (x, &r) in lx[lo..hi].iter().zip(&li[lo..hi]) {
            let row = &mut s[r as usize];
            for l in 0..K {
                row[l] -= x[l] * z[l];
            }
        }
    }
    // Lᵀ·v = w, row sweep bottom up.
    for j in (0..n).rev() {
        let (lo, hi) = (lp[j] as usize, lp[j + 1] as usize);
        let mut acc = s[j];
        for (x, &r) in lx[lo..hi].iter().zip(&li[lo..hi]) {
            let w = &s[r as usize];
            for l in 0..K {
                acc[l] -= x[l] * w[l];
            }
        }
        s[j] = acc;
    }
}
