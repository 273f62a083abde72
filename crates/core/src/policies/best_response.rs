//! Best-Response wiring (Definition 1).
//!
//! Choosing the `k` neighbors that minimize
//! `C_i = Σ_j p_ij · min_{w ∈ s_i} (d_iw + d_{G−i}(w, j))`
//! is an asymmetric k-median instance and NP-hard (§2.1), so EGOIST ships
//! two solvers:
//!
//! * **Exact** — exhaustive subset enumeration, used for validation and
//!   tiny instances (the ILP of \[21\] would solve the same instances).
//! * **Local search** — greedy seeding followed by best-improvement single
//!   swaps with best/second-best bookkeeping, the classic k-median local
//!   search (\[5\] in the paper). §4.1 reports the deployed heuristic lands
//!   "within 5% of optimal in the tested scenarios"; our test suite checks
//!   the same bound against the exact solver.

use super::{Policy, WiringContext};
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use std::sync::OnceLock;

/// Obs counters for the optimized solve paths. All are pure functions
/// of the instance (no wall clock, no RNG), so they are identical
/// across runs of the same seed. Hot loops accumulate into a
/// [`SolverTally`] and flush with one atomic add per counter per
/// `greedy`/`local_search` call. `gain_bound_rejects` counts both the
/// swap scan's insertion-gain rejects and greedy's stale-gain rejects.
struct BrObs {
    scanned: egoist_obs::Counter,
    bound_rejects: egoist_obs::Counter,
    prefilter_rejects: egoist_obs::Counter,
    exact_evals: egoist_obs::Counter,
    eval_aborts: egoist_obs::Counter,
    rounds: egoist_obs::Counter,
}

fn br_obs() -> &'static BrObs {
    static OBS: OnceLock<BrObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        BrObs {
            scanned: r.counter("core.solver.candidates_scanned"),
            bound_rejects: r.counter("core.solver.gain_bound_rejects"),
            prefilter_rejects: r.counter("core.solver.prefilter_rejects"),
            exact_evals: r.counter("core.solver.exact_evals"),
            eval_aborts: r.counter("core.solver.eval_aborts"),
            rounds: r.counter("core.solver.rounds"),
        }
    })
}

/// Per-call work counts of one solver run, flushed into [`BrObs`].
#[derive(Default)]
struct SolverTally {
    rounds: u64,
    scanned: u64,
    bound_rejects: u64,
    prefilter_rejects: u64,
    exact_evals: u64,
    eval_aborts: u64,
}

impl SolverTally {
    fn flush(&self) {
        let obs = br_obs();
        obs.rounds.add(self.rounds);
        obs.scanned.add(self.scanned);
        obs.bound_rejects.add(self.bound_rejects);
        obs.prefilter_rejects.add(self.prefilter_rejects);
        obs.exact_evals.add(self.exact_evals);
        obs.eval_aborts.add(self.eval_aborts);
    }
}

/// Reusable backing storage for [`BrInstance`] — the assignment matrix
/// is `|cand| × |dests|` (≈ n² on full candidate pools), so allocating
/// it fresh every re-wiring turn put a dense-materialization floor under
/// the epoch engine. Solver policies own one arena and recycle it
/// across turns; contents never survive a build, so reuse cannot change
/// a decision.
#[derive(Default)]
pub struct BrArena {
    assign: Vec<f64>,
}

/// Assignment-cost instance for one node's best response.
///
/// `assign[c][t]` is the cost node `i` pays for destination `t` when
/// routing through candidate `c` as the first hop; the instance is built
/// once per re-wiring and shared by all solvers.
pub struct BrInstance {
    /// Candidate neighbor ids.
    pub cand: Vec<NodeId>,
    /// Destination ids (alive, ≠ i).
    pub dests: Vec<NodeId>,
    /// Preference weight per destination (aligned with `dests`).
    pub weight: Vec<f64>,
    /// `assign[c * dests.len() + t]`, clamped at `penalty`.
    assign: Vec<f64>,
    /// Disconnection penalty (upper bound of any assignment cost).
    pub penalty: f64,
}

impl BrInstance {
    /// Build the instance from a wiring context, allocating fresh
    /// storage (tests and one-shot callers).
    pub fn build(ctx: &WiringContext<'_>) -> BrInstance {
        Self::build_in(ctx, &mut BrArena::default())
    }

    /// Build the instance into `arena`'s recycled buffers — candidate
    /// rows are read straight through the residual view, and the
    /// assignment matrix reuses the arena's capacity, so a warmed-up
    /// engine allocates nothing per turn. Call [`Self::recycle`] when
    /// done to hand the storage back.
    pub fn build_in(ctx: &WiringContext<'_>, arena: &mut BrArena) -> BrInstance {
        let cand: Vec<NodeId> = ctx.candidates.to_vec();
        let dests: Vec<NodeId> = ctx
            .candidates
            .iter()
            .copied()
            .filter(|j| ctx.alive[j.index()])
            .collect();
        let weight: Vec<f64> = dests.iter().map(|&j| ctx.prefs.get(ctx.node, j)).collect();
        let nd = dests.len();
        let mut assign = std::mem::take(&mut arena.assign);
        assign.clear();
        assign.resize(cand.len() * nd, ctx.penalty);
        for (c, &w) in cand.iter().enumerate() {
            let d_iw = ctx.direct[w.index()];
            if !d_iw.is_finite() {
                continue;
            }
            let via_w = ctx.residual.row(w.index());
            for (t, &j) in dests.iter().enumerate() {
                let tail = if w == j { 0.0 } else { via_w[j.index()] };
                if tail.is_finite() {
                    assign[c * nd + t] = (d_iw + tail).min(ctx.penalty);
                }
            }
        }
        BrInstance {
            cand,
            dests,
            weight,
            assign,
            penalty: ctx.penalty,
        }
    }

    /// Return the instance's backing storage to `arena` for the next
    /// turn.
    pub fn recycle(self, arena: &mut BrArena) {
        arena.assign = self.assign;
    }

    #[inline]
    fn a(&self, c: usize, t: usize) -> f64 {
        self.assign[c * self.dests.len() + t]
    }

    /// The assignment cost of candidate `c` serving destination `t`
    /// (clamped at the penalty) — read-only probe for benches and tests.
    #[inline]
    pub fn assignment(&self, c: usize, t: usize) -> f64 {
        self.a(c, t)
    }

    /// Candidate `c`'s assignment row.
    #[inline]
    fn arow(&self, c: usize) -> &[f64] {
        let nd = self.dests.len();
        &self.assign[c * nd..(c + 1) * nd]
    }

    /// `Σ_t w_t · max(0, b2_t − a(c,t))` — the insertion-gain bound of
    /// candidate `c`, summed branchless over four accumulators so the
    /// compiler vectorizes it. The value is used *only* as a pruning
    /// bound behind a 1e-9 relative margin, so its summation order (and
    /// therefore its exact bits) is free.
    fn gain_row(&self, c: usize, b2: &[f64]) -> f64 {
        let w = &self.weight;
        let a = self.arow(c);
        let mut acc = [0.0f64; 4];
        for ((wc, bc), ac) in w
            .chunks_exact(4)
            .zip(b2.chunks_exact(4))
            .zip(a.chunks_exact(4))
        {
            acc[0] += wc[0] * (bc[0] - ac[0]).max(0.0);
            acc[1] += wc[1] * (bc[1] - ac[1]).max(0.0);
            acc[2] += wc[2] * (bc[2] - ac[2]).max(0.0);
            acc[3] += wc[3] * (bc[3] - ac[3]).max(0.0);
        }
        let mut rest = 0.0;
        for ((wt, bt), at) in w
            .chunks_exact(4)
            .remainder()
            .iter()
            .zip(b2.chunks_exact(4).remainder())
            .zip(a.chunks_exact(4).remainder())
        {
            rest += wt * (bt - at).max(0.0);
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
    }

    /// Four-accumulator `Σ_t w_t · min(cap_t, a(c,t))` — the same sum
    /// the exact evaluations compute, in a different (vectorizable)
    /// order. Used only to prefilter: a candidate is skipped when even
    /// `approx − margin` cannot beat the incumbent, and every potential
    /// winner is re-evaluated in the exact reference order, so accepted
    /// results carry reference bits.
    fn approx_capped_cost(&self, c: usize, cap: &[f64]) -> f64 {
        let w = &self.weight;
        let a = self.arow(c);
        let mut acc = [0.0f64; 4];
        for ((wc, cc), ac) in w
            .chunks_exact(4)
            .zip(cap.chunks_exact(4))
            .zip(a.chunks_exact(4))
        {
            acc[0] += wc[0] * cc[0].min(ac[0]);
            acc[1] += wc[1] * cc[1].min(ac[1]);
            acc[2] += wc[2] * cc[2].min(ac[2]);
            acc[3] += wc[3] * cc[3].min(ac[3]);
        }
        let mut rest = 0.0;
        for ((wt, ct), at) in w
            .chunks_exact(4)
            .remainder()
            .iter()
            .zip(cap.chunks_exact(4).remainder())
            .zip(a.chunks_exact(4).remainder())
        {
            rest += wt * ct.min(*at);
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
    }

    /// `Σ_t w_t · min(cap_t, a(c,t))` accumulated in the reference
    /// order, stopping once the partial sum reaches `stop` (terms are
    /// non-negative, so it can only grow). Returns the sum — partial,
    /// and so a lower bound, when the flag says it stopped early.
    fn capped_cost(&self, c: usize, cap: &[f64], stop: f64) -> (f64, bool) {
        let mut cost = 0.0;
        for ((&w, &cap), &a) in self.weight.iter().zip(cap).zip(self.arow(c)) {
            cost += w * cap.min(a);
            if cost >= stop {
                return (cost, true);
            }
        }
        (cost, false)
    }

    /// Cost of a candidate subset (indices into `cand`).
    pub fn eval(&self, subset: &[usize]) -> f64 {
        let nd = self.dests.len();
        let mut total = 0.0;
        for t in 0..nd {
            let mut best = self.penalty;
            for &c in subset {
                let v = self.a(c, t);
                if v < best {
                    best = v;
                }
            }
            total += self.weight[t] * best;
        }
        total
    }

    /// Greedy seeding: repeatedly add the candidate with the largest
    /// marginal cost reduction. `forced` members are taken first.
    ///
    /// Decision-identical to [`Self::greedy_reference`] (asserted by
    /// tests): every pick is the lowest-index candidate of minimal
    /// reference-order cost, with the same bits. The scan is lazy in
    /// the CELF style:
    /// * **Stale-gain bound.** Insertion gains
    ///   `Σ_t w_t · max(0, b_t − a(c,t))` are submodular — they only
    ///   shrink as picks lower `b` — so a gain derived at an earlier
    ///   pick (`g_c`, refreshed from every cost the scan computes,
    ///   inflated by a 1e-9 relative slack) bounds the current one.
    ///   Each pick first evaluates the candidate with the largest `g_c`
    ///   exactly; its cost is the `ceiling`. Any `c` with
    ///   `total − g_c − slack ≥ ceiling` (`total = Σ_t w_t · b_t`) is
    ///   then provably *strictly* worse than that probe and is skipped:
    ///   it can neither be the pick nor tie with it.
    /// * **Index-order scan.** Everything else runs the scan in
    ///   candidate order, so tie-breaks are the reference's: a boolean
    ///   membership mask instead of `Vec::contains` (see the
    ///   `membership_mask` criterion group); a vectorized approximation
    ///   of each cost ([`Self::approx_capped_cost`]) that rejects when
    ///   `approx − margin ≥ pick_cost` — it differs from the exact sum
    ///   only by summation-order rounding (≤ ~1e-13 relative), far
    ///   inside the 1e-9 margin; and survivors accumulated in the
    ///   reference order, aborting once the partial sum reaches the
    ///   incumbent (terms are non-negative).
    ///
    /// Cost per call: `O(|cand|·|dests|)` for the first pick (no gain
    /// is known yet), then `O(|dests| + |cand|)` per pick plus
    /// `O(|dests|)` per candidate the bound does not reject.
    pub fn greedy(&self, k: usize, forced: &[usize]) -> Vec<usize> {
        let (chosen, tally) = self.greedy_tallied(k, forced);
        tally.flush();
        chosen
    }

    /// [`Self::greedy`] with its work counts handed back instead of
    /// flushed.
    fn greedy_tallied(&self, k: usize, forced: &[usize]) -> (Vec<usize>, SolverTally) {
        let nd = self.dests.len();
        let nc = self.cand.len();
        let mut chosen: Vec<usize> = forced.to_vec();
        let mut in_chosen = vec![false; nc];
        for &c in forced {
            in_chosen[c] = true;
        }
        let mut best_per_dest = vec![self.penalty; nd];
        for &c in forced {
            for (t, b) in best_per_dest.iter_mut().enumerate() {
                *b = b.min(self.a(c, t));
            }
        }
        // Upper bounds on each candidate's current insertion gain;
        // unknown until the scan first costs the candidate.
        let mut stale_gain = vec![f64::INFINITY; nc];
        let mut tally = SolverTally::default();
        while chosen.len() < k.min(nc) {
            let total: f64 = self
                .weight
                .iter()
                .zip(&best_per_dest)
                .map(|(w, b)| w * b)
                .sum();
            // Every cost here is at most `total` (up to rounding) and
            // carries ≤ ~1e-13 relative rounding; this slack dwarfs it on
            // both sides of the bound.
            let slack = 1e-9 * (total + 1.0);
            // The probe: the free candidate with the largest stale gain,
            // costed exactly. No pick can cost more than this ceiling.
            let mut top: Option<usize> = None;
            for c in (0..nc).filter(|&c| !in_chosen[c]) {
                if top.is_none_or(|p| stale_gain[c] > stale_gain[p]) {
                    top = Some(c);
                }
            }
            let probe = top.filter(|&p| stale_gain[p].is_finite()).map(|p| {
                tally.exact_evals += 1;
                let (cost, _) = self.capped_cost(p, &best_per_dest, f64::INFINITY);
                stale_gain[p] = total - cost + slack;
                (p, cost)
            });
            let ceiling = probe.map_or(f64::INFINITY, |(_, cost)| cost);
            let mut pick = None;
            let mut pick_cost = f64::INFINITY;
            for c in 0..nc {
                if in_chosen[c] {
                    continue;
                }
                tally.scanned += 1;
                if let Some((p, p_cost)) = probe.filter(|&(p, _)| p == c) {
                    // Its exact cost is known: the scan would prefilter
                    // or abort it exactly when `p_cost ≥ pick_cost`.
                    if p_cost < pick_cost {
                        pick_cost = p_cost;
                        pick = Some(p);
                    }
                    continue;
                }
                if total - stale_gain[c] - slack >= ceiling {
                    tally.bound_rejects += 1;
                    continue; // strictly worse than the probe
                }
                if pick_cost.is_finite() {
                    let approx = self.approx_capped_cost(c, &best_per_dest);
                    stale_gain[c] = stale_gain[c].min(total - approx + slack);
                    if approx - 1e-9 * (approx + 1.0) >= pick_cost {
                        tally.prefilter_rejects += 1;
                        continue; // provably cannot strictly win
                    }
                }
                tally.exact_evals += 1;
                let (cost, aborted) = self.capped_cost(c, &best_per_dest, pick_cost);
                // A partial sum under-counts the cost, so it still
                // yields an upper bound on the gain.
                stale_gain[c] = stale_gain[c].min(total - cost + slack);
                if aborted {
                    tally.eval_aborts += 1;
                } else if cost < pick_cost {
                    pick_cost = cost;
                    pick = Some(c);
                }
            }
            let Some(c) = pick else { break };
            chosen.push(c);
            in_chosen[c] = true;
            for (t, b) in best_per_dest.iter_mut().enumerate() {
                *b = b.min(self.a(c, t));
            }
        }
        (chosen, tally)
    }

    /// The pre-optimization greedy, kept verbatim as the timing
    /// reference for the `Recompute` oracle and the criterion benches.
    pub fn greedy_reference(&self, k: usize, forced: &[usize]) -> Vec<usize> {
        let nd = self.dests.len();
        let mut chosen: Vec<usize> = forced.to_vec();
        let mut best_per_dest = vec![self.penalty; nd];
        for &c in forced {
            for (t, b) in best_per_dest.iter_mut().enumerate() {
                *b = b.min(self.a(c, t));
            }
        }
        while chosen.len() < k.min(self.cand.len()) {
            let mut pick = None;
            let mut pick_cost = f64::INFINITY;
            for c in 0..self.cand.len() {
                if chosen.contains(&c) {
                    continue;
                }
                let mut cost = 0.0;
                for (t, (&w, &best)) in self.weight.iter().zip(best_per_dest.iter()).enumerate() {
                    cost += w * best.min(self.a(c, t));
                }
                if cost < pick_cost {
                    pick_cost = cost;
                    pick = Some(c);
                }
            }
            let Some(c) = pick else { break };
            chosen.push(c);
            for (t, b) in best_per_dest.iter_mut().enumerate() {
                *b = b.min(self.a(c, t));
            }
        }
        chosen
    }

    /// Best-improvement single-swap local search starting from `init`.
    /// `forced` members are never swapped out. Returns the subset and its
    /// cost.
    ///
    /// The swap scan is the epoch-stepping hot spot (`O(k · |cand| ·
    /// |dests|)` per round in [`Self::local_search_reference`]), so this
    /// version prunes it in three sound layers:
    ///
    /// * **Insertion-gain bound.** A swap inserting `inn` can reduce the
    ///   cost by at most `G(inn) = Σ_t w_t · max(0, b2_t − a(inn, t))`
    ///   (the surviving assignment never exceeds the second-best
    ///   `b2_t`), so any pair with `base(out) − G(inn) ⪆ threshold` is
    ///   skipped without evaluation. The bound is maintained
    ///   *incrementally*: a swap changes `b2` at only the destinations
    ///   the swapped pair served, so later rounds patch `G` on that
    ///   changed set (`O(|cand| · |changed|)`) instead of re-deriving
    ///   all `|cand| · |dests|` terms; the candidate freed by the swap
    ///   is re-derived in full. The patched bound equals the re-derived
    ///   one up to summation-order rounding.
    /// * **Vectorized eval prefilter.** Pairs surviving the bound get a
    ///   branchless four-lane approximation of their exact cost
    ///   ([`Self::approx_capped_cost`]); `approx − margin ≥ threshold`
    ///   proves the exact evaluation would have aborted.
    /// * **Exact evaluation.** Survivors are accumulated in exactly the
    ///   reference order (aborting once the partial sum crosses the
    ///   threshold — terms are non-negative), so accepted swaps, their
    ///   costs, and the whole trajectory are bit-identical to the
    ///   reference: both filters only discard pairs provably unable to
    ///   *strictly* beat the incumbent, by 1e-9 relative margins that
    ///   dwarf every accumulated rounding term (≤ ~1e-13 relative).
    ///   Tests and the golden equivalence suite pin the equality.
    pub fn local_search(
        &self,
        k: usize,
        init: Vec<usize>,
        forced: &[usize],
        max_rounds: usize,
    ) -> (Vec<usize>, f64) {
        let mut subset = init;
        subset.sort_unstable();
        subset.dedup();
        if subset.len() < k.min(self.cand.len()) {
            subset = self.greedy(k, &subset);
        }
        self.local_search_seeded(subset, forced, max_rounds)
    }

    /// [`Self::local_search`]'s swap rounds, starting from `seed` exactly
    /// as given: no sort, no dedup, no greedy completion. The subset's
    /// order is the swap scan's `out` order, so a seed handed over in
    /// greedy pick order reproduces what `local_search` does after it
    /// completed an empty `init` with that same greedy.
    fn local_search_seeded(
        &self,
        seed: Vec<usize>,
        forced: &[usize],
        max_rounds: usize,
    ) -> (Vec<usize>, f64) {
        let nd = self.dests.len();
        let nc = self.cand.len();
        let mut subset = seed;
        let mut cost = self.eval(&subset);
        // Reusable membership masks (see `greedy` for the rationale).
        let mut in_subset = vec![false; nc];
        for &c in &subset {
            in_subset[c] = true;
        }
        let mut is_forced = vec![false; nc];
        for &c in forced {
            is_forced[c] = true;
        }
        let mut gain_bound = vec![0.0f64; nc];
        let mut surviving = vec![0.0f64; nd];
        let mut prev_b2: Vec<f64> = Vec::new();
        let mut changed: Vec<usize> = Vec::new();
        // Candidate freed by the previous round's swap (its bound is
        // stale since it sat inside the subset).
        let mut freed: Option<usize> = None;
        let mut tally = SolverTally::default();

        for _ in 0..max_rounds {
            tally.rounds += 1;
            // best1/best2 assignment per destination.
            let mut b1 = vec![(self.penalty, usize::MAX); nd]; // (cost, cand)
            let mut b2 = vec![self.penalty; nd];
            for &c in &subset {
                for t in 0..nd {
                    let v = self.a(c, t);
                    if v < b1[t].0 {
                        b2[t] = b1[t].0;
                        b1[t] = (v, c);
                    } else if v < b2[t] {
                        b2[t] = v;
                    }
                }
            }
            // Upper bound on any insertion's gain, independent of `out`.
            if prev_b2.is_empty() {
                for (inn, g) in gain_bound.iter_mut().enumerate() {
                    if !in_subset[inn] {
                        *g = self.gain_row(inn, &b2);
                    }
                }
                prev_b2 = b2.clone();
            } else {
                changed.clear();
                for t in 0..nd {
                    if prev_b2[t].to_bits() != b2[t].to_bits() {
                        changed.push(t);
                    }
                }
                if changed.len() * 4 >= nd {
                    // Dense change: a full re-derive is cheaper.
                    for (inn, g) in gain_bound.iter_mut().enumerate() {
                        if !in_subset[inn] {
                            *g = self.gain_row(inn, &b2);
                        }
                    }
                } else {
                    for (inn, g) in gain_bound.iter_mut().enumerate() {
                        if in_subset[inn] || freed == Some(inn) {
                            continue;
                        }
                        // Patch the bound on the changed destinations,
                        // inflating by 1e-12 of the term magnitude: the
                        // patch's rounding error is ≤ ~1e-14 of it, so
                        // the bound can only drift *upward* (safe side)
                        // across rounds.
                        let (mut plus, mut minus) = (0.0f64, 0.0f64);
                        for &t in &changed {
                            let a = self.a(inn, t);
                            plus += self.weight[t] * (b2[t] - a).max(0.0);
                            minus += self.weight[t] * (prev_b2[t] - a).max(0.0);
                        }
                        *g += (plus - minus) + 1e-12 * (plus + minus);
                    }
                    if let Some(f) = freed {
                        gain_bound[f] = self.gain_row(f, &b2);
                    }
                }
                prev_b2.copy_from_slice(&b2);
            }

            let mut best_swap: Option<(usize, usize, f64)> = None; // (out, in, new_cost)
            for &out in &subset {
                if is_forced[out] {
                    continue;
                }
                // The assignment that survives dropping `out`, plus its
                // total — the swap's cost before `inn` helps anywhere.
                let mut base = 0.0;
                for t in 0..nd {
                    surviving[t] = if b1[t].1 == out { b2[t] } else { b1[t].0 };
                    base += self.weight[t] * surviving[t];
                }
                for inn in 0..nc {
                    if in_subset[inn] {
                        continue;
                    }
                    tally.scanned += 1;
                    let threshold = match best_swap {
                        Some((_, _, c)) => c.min(cost - 1e-12),
                        None => cost - 1e-12,
                    };
                    // Margin: ~1e-9 relative dwarfs f64 summation error
                    // (≤ |dests| · ε ≈ 1e-13 relative) while pruning
                    // everything that is not a near-tie.
                    let margin = 1e-9 * (base + gain_bound[inn] + 1.0);
                    if base - gain_bound[inn] >= threshold + margin {
                        tally.bound_rejects += 1;
                        continue;
                    }
                    let approx = self.approx_capped_cost(inn, &surviving);
                    if approx - 1e-9 * (approx + 1.0) >= threshold {
                        tally.prefilter_rejects += 1;
                        continue; // the exact eval would have aborted
                    }
                    tally.exact_evals += 1;
                    let (new_cost, aborted) = self.capped_cost(inn, &surviving, threshold);
                    if aborted {
                        tally.eval_aborts += 1;
                    }
                    if !aborted
                        && new_cost < cost - 1e-12
                        && best_swap.map(|(_, _, c)| new_cost < c).unwrap_or(true)
                    {
                        best_swap = Some((out, inn, new_cost));
                    }
                }
            }
            match best_swap {
                Some((out, inn, new_cost)) => {
                    subset.retain(|&c| c != out);
                    subset.push(inn);
                    in_subset[out] = false;
                    in_subset[inn] = true;
                    freed = Some(out);
                    cost = new_cost;
                }
                None => break,
            }
        }
        tally.flush();
        (subset, cost)
    }

    /// The pre-optimization local search, kept verbatim: the timing
    /// reference the `Recompute` oracle runs so `perf_baseline`'s
    /// `baseline_wall_ms` measures what this repo shipped before the
    /// epoch route-state engine. Bit-identical results to
    /// [`Self::local_search`] (tests assert it).
    pub fn local_search_reference(
        &self,
        k: usize,
        init: Vec<usize>,
        forced: &[usize],
        max_rounds: usize,
    ) -> (Vec<usize>, f64) {
        let nd = self.dests.len();
        let mut subset = init;
        subset.sort_unstable();
        subset.dedup();
        let mut cost = self.eval(&subset);
        if subset.len() < k.min(self.cand.len()) {
            subset = self.greedy_reference(k, &subset);
            cost = self.eval(&subset);
        }

        for _ in 0..max_rounds {
            let mut b1 = vec![(self.penalty, usize::MAX); nd];
            let mut b2 = vec![self.penalty; nd];
            for &c in &subset {
                for t in 0..nd {
                    let v = self.a(c, t);
                    if v < b1[t].0 {
                        b2[t] = b1[t].0;
                        b1[t] = (v, c);
                    } else if v < b2[t] {
                        b2[t] = v;
                    }
                }
            }

            let mut best_swap: Option<(usize, usize, f64)> = None;
            for &out in &subset {
                if forced.contains(&out) {
                    continue;
                }
                for inn in 0..self.cand.len() {
                    if subset.contains(&inn) {
                        continue;
                    }
                    let mut new_cost = 0.0;
                    for t in 0..nd {
                        let surviving = if b1[t].1 == out { b2[t] } else { b1[t].0 };
                        new_cost += self.weight[t] * surviving.min(self.a(inn, t));
                    }
                    if new_cost < cost - 1e-12
                        && best_swap.map(|(_, _, c)| new_cost < c).unwrap_or(true)
                    {
                        best_swap = Some((out, inn, new_cost));
                    }
                }
            }
            match best_swap {
                Some((out, inn, new_cost)) => {
                    subset.retain(|&c| c != out);
                    subset.push(inn);
                    cost = new_cost;
                }
                None => break,
            }
        }
        (subset, cost)
    }

    /// Exhaustive optimum over all `C(|cand|, k)` subsets containing
    /// `forced`. Returns `None` when the enumeration would exceed
    /// `budget` subsets.
    pub fn exhaustive(&self, k: usize, forced: &[usize], budget: u64) -> Option<(Vec<usize>, f64)> {
        let k = k.min(self.cand.len());
        let free: Vec<usize> = (0..self.cand.len())
            .filter(|c| !forced.contains(c))
            .collect();
        let pick = k.saturating_sub(forced.len());
        if combinations(free.len() as u64, pick as u64) > budget {
            return None;
        }
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut subset: Vec<usize> = forced.to_vec();
        self.enumerate(&free, pick, 0, &mut subset, &mut best);
        best
    }

    fn enumerate(
        &self,
        free: &[usize],
        remaining: usize,
        start: usize,
        subset: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if remaining == 0 {
            let c = self.eval(subset);
            if best.as_ref().map(|(_, bc)| c < *bc).unwrap_or(true) {
                *best = Some((subset.clone(), c));
            }
            return;
        }
        for idx in start..free.len() {
            if free.len() - idx < remaining {
                break;
            }
            subset.push(free[idx]);
            self.enumerate(free, remaining - 1, idx + 1, subset, best);
            subset.pop();
        }
    }

    /// Map candidate indices back to node ids.
    pub fn to_nodes(&self, subset: &[usize]) -> Vec<NodeId> {
        subset.iter().map(|&c| self.cand[c]).collect()
    }
}

fn combinations(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
        if acc > 1 << 60 {
            return u64::MAX;
        }
    }
    acc
}

/// The Best-Response policy object.
pub struct BestResponse {
    exact: bool,
    /// Run the pre-optimization reference solver loops (the `Recompute`
    /// oracle's timing-faithful mode). Results are bit-identical either
    /// way.
    pub reference: bool,
    /// Maximum local-search rounds.
    pub max_rounds: usize,
    /// Enumeration budget for the exact solver.
    pub exact_budget: u64,
    /// Relative hysteresis: keep the current wiring unless the best found
    /// wiring improves on it by more than this fraction. Best-response
    /// dynamics with an *approximate* solver can limit-cycle on near-ties
    /// (different local optima of almost equal cost); a tiny dead band
    /// restores the convergence the exact game has (\[20\]'s equilibria)
    /// without measurably changing cost.
    pub hysteresis: f64,
    /// Recycled assignment-matrix storage (no per-turn allocation).
    arena: BrArena,
}

impl BestResponse {
    /// Local-search solver (the deployed default).
    ///
    /// The 1% hysteresis models the real system's measurement noise
    /// floor: ping-averaged costs cannot resolve sub-percent differences,
    /// so the deployed EGOIST never re-wired for gains that small either.
    pub fn local_search() -> Self {
        BestResponse {
            exact: false,
            reference: false,
            max_rounds: 64,
            exact_budget: 0,
            hysteresis: 0.01,
            arena: BrArena::default(),
        }
    }

    /// Exhaustive solver; falls back to local search above the budget.
    pub fn exact() -> Self {
        BestResponse {
            exact: true,
            reference: false,
            max_rounds: 64,
            exact_budget: 2_000_000,
            hysteresis: 0.0,
            arena: BrArena::default(),
        }
    }

    /// Flip this solver into reference (pre-optimization) mode.
    pub fn with_reference(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    fn run_local_search(&self, inst: &BrInstance, k: usize, init: Vec<usize>) -> (Vec<usize>, f64) {
        if self.reference {
            inst.local_search_reference(k, init, &[], self.max_rounds)
        } else {
            inst.local_search(k, init, &[], self.max_rounds)
        }
    }

    /// Solve and return (neighbors, cost).
    pub fn solve(&mut self, ctx: &WiringContext<'_>) -> (Vec<NodeId>, f64) {
        let inst = BrInstance::build_in(ctx, &mut self.arena);
        let k = ctx.effective_k();
        // Current wiring (alive members only) as candidate indices.
        let init: Vec<usize> = ctx
            .current
            .iter()
            .filter_map(|w| inst.cand.iter().position(|&c| c == *w))
            .collect();

        let (best_set, best_cost) = if self.exact {
            match inst.exhaustive(k, &[], self.exact_budget) {
                Some(r) => r,
                None => self.run_local_search(&inst, k, init.clone()),
            }
        } else {
            // Seed local search from both the current wiring and greedy;
            // take the cheaper result.
            let greedy = if self.reference {
                inst.greedy_reference(k, &[])
            } else {
                inst.greedy(k, &[])
            };
            // With no alive member left, local search would complete the
            // empty wiring with this very greedy: hand it over, in pick
            // order, instead of recomputing it.
            let (s1, c1) = if init.is_empty() && !self.reference {
                inst.local_search_seeded(greedy.clone(), &[], self.max_rounds)
            } else {
                self.run_local_search(&inst, k, init.clone())
            };
            let (s2, c2) = self.run_local_search(&inst, k, greedy);
            if c1 <= c2 {
                (s1, c1)
            } else {
                (s2, c2)
            }
        };

        // Hysteresis: a full current wiring is kept unless beaten clearly.
        let result = if self.hysteresis > 0.0 && init.len() == k {
            let current_cost = inst.eval(&init);
            if best_cost >= current_cost * (1.0 - self.hysteresis) {
                (inst.to_nodes(&init), current_cost)
            } else {
                (inst.to_nodes(&best_set), best_cost)
            }
        } else {
            (inst.to_nodes(&best_set), best_cost)
        };
        inst.recycle(&mut self.arena);
        result
    }
}

impl Policy for BestResponse {
    fn wire(&mut self, ctx: &WiringContext<'_>, _rng: &mut StdRng) -> Vec<NodeId> {
        self.solve(ctx).0
    }

    fn name(&self) -> &'static str {
        if self.exact {
            "BR-exact"
        } else {
            "BR"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::CtxParts;
    use crate::wiring::Wiring;
    use egoist_graph::{DistanceMatrix, NodeId};

    /// A 5-node metric where node 0's best single neighbor is the hub.
    fn hub_matrix() -> DistanceMatrix {
        // Node 1 is a hub: cheap to everyone. Others expensive directly.
        DistanceMatrix::from_fn(5, |i, j| if i == 1 || j == 1 { 1.0 } else { 10.0 })
    }

    fn ring_wiring(n: usize) -> Wiring {
        let mut w = Wiring::empty(n);
        for i in 0..n {
            w.rewire(NodeId::from_index(i), vec![NodeId::from_index((i + 1) % n)]);
        }
        w
    }

    #[test]
    fn br_prefers_the_hub() {
        let d = hub_matrix();
        let w = ring_wiring(5);
        let parts = CtxParts::build(&d, &w, NodeId(0), 1);
        let (neighbors, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neighbors, vec![NodeId(1)], "hub must be chosen at k=1");
    }

    #[test]
    fn exact_matches_local_search_on_small_instances() {
        // Pseudo-random but deterministic metric.
        let d = DistanceMatrix::from_fn(9, |i, j| ((i * 7 + j * 13) % 23 + 1) as f64);
        let w = ring_wiring(9);
        for k in 1..4 {
            let parts = CtxParts::build(&d, &w, NodeId(0), k);
            let ctx = parts.ctx();
            let (_, c_exact) = BestResponse::exact().solve(&ctx);
            let (_, c_ls) = BestResponse::local_search().solve(&ctx);
            assert!(
                c_ls <= c_exact * 1.05 + 1e-9,
                "k={k}: local search {c_ls} should be within 5% of optimal {c_exact}"
            );
            assert!(c_exact <= c_ls + 1e-9, "exact can never be worse");
        }
    }

    #[test]
    fn cost_decreases_with_k() {
        let d = DistanceMatrix::from_fn(10, |i, j| ((i * 3 + j * 5) % 17 + 1) as f64);
        let w = ring_wiring(10);
        let mut prev = f64::INFINITY;
        for k in 1..6 {
            let parts = CtxParts::build(&d, &w, NodeId(2), k);
            let (_, c) = BestResponse::local_search().solve(&parts.ctx());
            assert!(
                c <= prev + 1e-9,
                "more links can't hurt: k={k}, {c} > {prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn returns_exactly_k_distinct_neighbors() {
        let d = DistanceMatrix::from_fn(8, |i, j| ((i + 2 * j) % 9 + 1) as f64);
        let w = ring_wiring(8);
        let parts = CtxParts::build(&d, &w, NodeId(3), 4);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neigh.len(), 4);
        let mut s = neigh.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4);
        assert!(!neigh.contains(&NodeId(3)));
    }

    #[test]
    fn k_larger_than_population_is_clamped() {
        let d = DistanceMatrix::off_diagonal(4, 1.0);
        let w = ring_wiring(4);
        let parts = CtxParts::build(&d, &w, NodeId(0), 10);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert_eq!(neigh.len(), 3);
    }

    #[test]
    fn stable_under_repeated_solve() {
        // Solving twice from the resulting wiring must not flip-flop.
        let d = DistanceMatrix::from_fn(12, |i, j| ((i * 11 + j * 3) % 19 + 1) as f64);
        let mut w = ring_wiring(12);
        let parts = CtxParts::build(&d, &w, NodeId(5), 3);
        let (n1, c1) = BestResponse::local_search().solve(&parts.ctx());
        w.rewire(NodeId(5), n1.clone());
        let parts2 = CtxParts::build(&d, &w, NodeId(5), 3);
        let (n2, c2) = BestResponse::local_search().solve(&parts2.ctx());
        let mut a = n1.clone();
        let mut b = n2.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "re-solve changed wiring: {c1} → {c2}");
    }

    #[test]
    fn unreachable_destinations_attract_direct_links() {
        // Node 3 is reachable by nobody in the residual: BR must link to it
        // directly (the §4.4 healing incentive), because the penalty
        // dominates.
        let mut d = DistanceMatrix::off_diagonal(5, 5.0);
        d.set(NodeId(0), NodeId(3), 50.0); // even an expensive direct link wins
        let mut w = Wiring::empty(5);
        // Others form a ring that excludes node 3 entirely.
        w.rewire(NodeId(1), vec![NodeId(2)]);
        w.rewire(NodeId(2), vec![NodeId(4)]);
        w.rewire(NodeId(4), vec![NodeId(1)]);
        let parts = CtxParts::build(&d, &w, NodeId(0), 2);
        let (neigh, _) = BestResponse::local_search().solve(&parts.ctx());
        assert!(
            neigh.contains(&NodeId(3)),
            "BR must reconnect the isolated node, got {neigh:?}"
        );
    }

    /// A deterministic, irregular instance large enough to exercise the
    /// pruned scan, the abort paths and multi-round swap chains.
    fn scrambled_instance(n: usize, seed: usize) -> (DistanceMatrix, Wiring) {
        let d = DistanceMatrix::from_fn(n, |i, j| {
            ((i * 13 + j * 7 + seed * 31) % 83 + 1) as f64 * 0.25
        });
        let mut w = Wiring::empty(n);
        for i in 0..n {
            let neigh: Vec<NodeId> = (1..4)
                .map(|o| NodeId::from_index((i + o * (seed + 2)) % n))
                .filter(|x| x.index() != i)
                .collect();
            w.rewire(NodeId::from_index(i), neigh);
        }
        (d, w)
    }

    #[test]
    fn optimized_solvers_match_reference_bitwise() {
        for seed in 0..6 {
            for (n, k) in [(15usize, 3usize), (30, 5), (48, 7)] {
                let (d, w) = scrambled_instance(n, seed);
                let parts = CtxParts::build(&d, &w, NodeId::from_index(seed % n), k);
                let ctx = parts.ctx();
                let inst = BrInstance::build(&ctx);

                let g_opt = inst.greedy(k, &[]);
                let g_ref = inst.greedy_reference(k, &[]);
                assert_eq!(g_opt, g_ref, "greedy diverged (n={n}, k={k}, seed={seed})");

                let current_init: Vec<usize> = parts
                    .current
                    .iter()
                    .filter_map(|w| inst.cand.iter().position(|&c| c == *w))
                    .collect();
                for init in [Vec::new(), g_opt.clone(), current_init] {
                    let (s_opt, c_opt) = inst.local_search(k, init.clone(), &[], 64);
                    let (s_ref, c_ref) = inst.local_search_reference(k, init, &[], 64);
                    let mut a = s_opt.clone();
                    let mut b = s_ref.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "subset diverged (n={n}, k={k}, seed={seed})");
                    assert_eq!(
                        c_opt.to_bits(),
                        c_ref.to_bits(),
                        "cost bits diverged (n={n}, k={k}, seed={seed}): {c_opt} vs {c_ref}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_solvers_match_reference_with_forced_members() {
        let (d, w) = scrambled_instance(24, 3);
        let parts = CtxParts::build(&d, &w, NodeId(1), 5);
        let inst = BrInstance::build(&parts.ctx());
        let forced = [2usize, 9];
        let g_opt = inst.greedy(5, &forced);
        let g_ref = inst.greedy_reference(5, &forced);
        assert_eq!(g_opt, g_ref);
        let (s_opt, c_opt) = inst.local_search(5, g_opt, &forced, 64);
        let (s_ref, c_ref) = inst.local_search_reference(5, g_ref, &forced, 64);
        let mut a = s_opt;
        let mut b = s_ref;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(c_opt.to_bits(), c_ref.to_bits());
    }

    /// An instance built for exact ties: `n − 1` is a power of two, so
    /// the uniform weight `1/(n−1)` and every cost (integer delays,
    /// integer penalty) are exact in `f64`; most nodes have no out-link,
    /// so most candidates reach only themselves and their assignment
    /// rows are penalty-clamped almost everywhere.
    fn tie_instance(n: usize, seed: usize) -> (DistanceMatrix, Wiring) {
        let d = DistanceMatrix::from_fn(n, |i, j| ((i * 5 + j * 7 + seed) % 3 + 1) as f64);
        let mut w = Wiring::empty(n);
        for i in (0..n).filter(|i| (i + seed).is_multiple_of(8)) {
            let j = (i * 3 + seed + 1) % n;
            if j != i {
                w.rewire(NodeId::from_index(i), vec![NodeId::from_index(j)]);
            }
        }
        (d, w)
    }

    /// Replays the reference greedy and returns, over its picks, the
    /// largest number of free candidates sharing the minimal cost.
    fn widest_pick_tie(inst: &BrInstance, k: usize, forced: &[usize]) -> usize {
        let mut chosen: Vec<usize> = forced.to_vec();
        let mut widest = 0;
        while chosen.len() < k.min(inst.cand.len()) {
            let costs: Vec<(usize, f64)> = (0..inst.cand.len())
                .filter(|c| !chosen.contains(c))
                .map(|c| {
                    let mut with = chosen.clone();
                    with.push(c);
                    (c, inst.eval(&with))
                })
                .collect();
            let min = costs.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let tied: Vec<usize> = costs
                .iter()
                .filter(|&&(_, v)| v == min)
                .map(|&(c, _)| c)
                .collect();
            widest = widest.max(tied.len());
            chosen.push(tied[0]);
        }
        widest
    }

    #[test]
    fn optimized_solvers_match_reference_on_exact_ties() {
        for seed in 0..4 {
            for (n, k) in [(17usize, 6usize), (33, 8), (65, 14)] {
                let (d, w) = tie_instance(n, seed);
                let parts = CtxParts::build(&d, &w, NodeId::from_index(seed % n), k);
                let inst = BrInstance::build(&parts.ctx());
                let clamped = (0..inst.cand.len())
                    .flat_map(|c| (0..inst.dests.len()).map(move |t| (c, t)))
                    .filter(|&(c, t)| inst.assignment(c, t) == inst.penalty)
                    .count();
                assert!(
                    2 * clamped > inst.cand.len() * inst.dests.len(),
                    "n={n}: only {clamped} penalty-clamped entries"
                );
                let forced = [1usize, n / 2];
                for forced in [&[][..], &forced[..]] {
                    let tie = widest_pick_tie(&inst, k, forced);
                    assert!(tie >= 2, "n={n}, seed={seed}: no tied pick to break");
                    let g_opt = inst.greedy(k, forced);
                    let g_ref = inst.greedy_reference(k, forced);
                    assert_eq!(
                        g_opt, g_ref,
                        "greedy tie-break drifted (n={n}, seed={seed})"
                    );
                    for init in [Vec::new(), g_opt.clone(), forced.to_vec()] {
                        let (s_opt, c_opt) = inst.local_search(k, init.clone(), forced, 64);
                        let (s_ref, c_ref) = inst.local_search_reference(k, init, forced, 64);
                        assert_eq!(s_opt, s_ref, "swap tie-break drifted (n={n}, seed={seed})");
                        assert_eq!(c_opt.to_bits(), c_ref.to_bits());
                    }
                    // The seed `solve` hands over, in pick order, must
                    // replay the greedy completion of `init = forced`.
                    let (s_opt, c_opt) = inst.local_search_seeded(g_opt, forced, 64);
                    let (s_ref, c_ref) =
                        inst.local_search_reference(k, forced.to_vec(), forced, 64);
                    assert_eq!(
                        s_opt, s_ref,
                        "seeded local search drifted (n={n}, seed={seed})"
                    );
                    assert_eq!(c_opt.to_bits(), c_ref.to_bits());
                }
            }
        }
    }

    #[test]
    fn greedy_breaks_a_tie_with_a_stale_probe_by_index() {
        // Four destinations (unit weight, penalty 10). Candidate 2 serves
        // t0 and t1 and is picked first. Candidate 3's gain then drops
        // from 16 to 6, but its stale gain still makes it the probe of
        // the second pick, where it ties at cost 14 with candidate 0 —
        // which the reference picks, being first in index order.
        let p = 10.0;
        let inst = BrInstance {
            cand: (0..4).map(NodeId::from_index).collect(),
            dests: (4..8).map(NodeId::from_index).collect(),
            weight: vec![1.0; 4],
            assign: vec![
                p, p, p, 4.0, // 0: t3 only
                p, p, p, p, // 1: nothing
                0.0, 0.0, p, p, // 2: t0 and t1
                p, 0.0, 4.0, p, // 3: t1 and t2
            ],
            penalty: p,
        };
        assert_eq!(widest_pick_tie(&inst, 2, &[]), 2);
        assert_eq!(inst.greedy_reference(2, &[]), vec![2, 0]);
        assert_eq!(inst.greedy(2, &[]), vec![2, 0]);
        let (s_opt, c_opt) = inst.local_search(3, Vec::new(), &[], 64);
        let (s_ref, c_ref) = inst.local_search_reference(3, Vec::new(), &[], 64);
        assert_eq!(s_opt, s_ref);
        assert_eq!(c_opt.to_bits(), c_ref.to_bits());
    }

    #[test]
    fn greedy_stale_gain_bound_fires() {
        for (d, w) in [scrambled_instance(200, 1), tie_instance(257, 2)] {
            let parts = CtxParts::build(&d, &w, NodeId(0), 10);
            let inst = BrInstance::build(&parts.ctx());
            let (chosen, tally) = inst.greedy_tallied(10, &[]);
            assert_eq!(chosen, inst.greedy_reference(10, &[]));
            assert!(
                tally.bound_rejects > 0,
                "greedy's stale-gain bound never rejected a candidate"
            );
        }
    }

    #[test]
    fn combinations_helper() {
        assert_eq!(super::combinations(5, 2), 10);
        assert_eq!(super::combinations(49, 3), 18424);
        assert_eq!(super::combinations(3, 5), 0);
    }

    #[test]
    fn greedy_respects_forced_members() {
        let d = DistanceMatrix::from_fn(6, |i, j| ((i + j) % 5 + 1) as f64);
        let w = ring_wiring(6);
        let parts = CtxParts::build(&d, &w, NodeId(0), 3);
        let inst = BrInstance::build(&parts.ctx());
        let g = inst.greedy(3, &[4]);
        assert!(g.contains(&4));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn local_search_never_swaps_forced() {
        let d = DistanceMatrix::from_fn(7, |i, j| ((2 * i + j) % 6 + 1) as f64);
        let w = ring_wiring(7);
        let parts = CtxParts::build(&d, &w, NodeId(0), 3);
        let inst = BrInstance::build(&parts.ctx());
        let (s, _) = inst.local_search(3, vec![2], &[2], 32);
        assert!(s.contains(&2));
    }
}
