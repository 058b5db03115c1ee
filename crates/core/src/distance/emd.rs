//! Earth Mover's Distance (EMD) between weighted sets of feature vectors.
//!
//! EMD is the toolkit's built-in default object distance (paper §4.2.2):
//! given objects `X` (m segments) and `Y` (n segments),
//!
//! ```text
//! EMD(X, Y) = min Σ_i Σ_j f_ij · d(X_i, Y_j)
//! s.t. f_ij ≥ 0, Σ_j f_ij = w(X_i), Σ_i f_ij = w(Y_j)
//! ```
//!
//! With both weight sets normalized to sum to 1 the problem is a balanced
//! transportation problem. [`solve_transportation`] solves it exactly with
//! the transportation simplex: a Vogel start, then MODI (u-v potential)
//! pivots until no cell has a negative reduced cost. Its buffers, and the
//! weights and cost matrix the EMD types build, live in per-thread
//! workspaces, so a solve allocates nothing once its thread has seen a
//! problem that large. [`solve_transportation_reference`] keeps the
//! successive-shortest-path solver as the test oracle. A greedy
//! approximation (always an upper bound) is provided for speed
//! comparisons, and the improved EMD of [Lv et al., CIKM'04] —
//! segment-distance thresholding plus square-root weight transformation —
//! is available as [`ThresholdedEmd`]. Every EMD type stages its
//! transportation problem through [`ObjectDistance::stage`], with a lower
//! bound from the cost matrix that lets the ranking unit skip solves that
//! cannot reach the top k, and finishes it without rebuilding the matrix.

use std::cell::Cell;

use super::{ObjectDistance, SegmentDistance};
use crate::error::{CoreError, Result};
use crate::object::DataObject;

/// Tolerance below which a residual supply/demand is considered exhausted
/// (reference solver and greedy approximation).
const EPS: f64 = 1e-12;

/// Reduced-cost tolerance of the simplex, per tree node and relative to
/// the largest cost: potentials are sums along tree paths, so their
/// round-off grows with the tree.
const PIVOT_TOL: f64 = 1e-13;

/// Slack of the bound [`ObjectDistance::stage`] returns, relative to the
/// pair's largest cost. It covers the round-off of the bound and of the
/// solver (both far below it), so the bound never exceeds the distance
/// the solver returns and pruning never drops a candidate that would tie
/// the k-th and win on id.
const BOUND_SLACK: f64 = 1e-9;

thread_local! {
    static SIMPLEX: Cell<Simplex> = Cell::new(Simplex::default());
    static PAIR: Cell<Pair> = Cell::new(Pair::default());
}

/// Solves the balanced transportation problem exactly.
///
/// `supply` and `demand` must be non-negative and have (approximately) equal
/// sums; `cost[i * demand.len() + j]` is the non-negative unit cost of
/// moving mass from supply node `i` to demand node `j`. Returns the minimal
/// total cost.
///
/// The solver is the transportation simplex. Vogel's approximation picks
/// the starting basis: `m + n - 1` cells, a spanning tree over the rows
/// and columns, degenerate (zero-flow) cells included. Each pivot computes
/// the u-v potentials along the tree, enters the cell with the most
/// negative reduced cost and moves flow around the cell's cycle. After
/// `m + n` degenerate pivots in a row it switches to Bland's rule (lowest
/// cell index enters; ties on the leaving cell go to the lowest index),
/// which cannot cycle. The same inputs always give the same bits.
///
/// # Panics
///
/// Panics if `cost.len() != supply.len() * demand.len()`.
pub fn solve_transportation(supply: &[f64], demand: &[f64], cost: &[f64]) -> f64 {
    assert_eq!(
        cost.len(),
        supply.len() * demand.len(),
        "cost matrix shape mismatch"
    );
    if supply.is_empty() || demand.is_empty() {
        return 0.0;
    }
    // Taken out of the cell rather than borrowed: a re-entrant call (a
    // ground distance that itself solves) gets fresh buffers instead of
    // a borrow panic.
    let mut simplex = SIMPLEX.with(Cell::take);
    let total = simplex.solve(supply, demand, cost);
    SIMPLEX.with(|cell| cell.set(simplex));
    total
}

/// Buffers of the transportation simplex, reused across solves.
#[derive(Default)]
struct Simplex {
    /// Per line of the Vogel start (rows `0..m`, then columns): residual
    /// supply or demand, whether it is open, its two cheapest open cells
    /// and its penalty (`-∞` once closed).
    rest: Vec<f64>,
    open: Vec<bool>,
    cheap: Vec<Cheapest>,
    penalty: Vec<f64>,
    /// The basis: `m + n - 1` cells `(row, column)` and their flows.
    cells: Vec<(usize, usize)>,
    flow: Vec<f64>,
    /// Whether each cell `i * n + j` of the cost matrix is basic.
    basic: Vec<bool>,
    /// The basis as a tree over rows `0..m` and columns `m..m + n`:
    /// adjacency in compressed rows of `(neighbour, basis slot)`.
    adj_start: Vec<usize>,
    adj: Vec<(usize, usize)>,
    /// Per node: potential (u for rows, v for columns), parent, the
    /// basis slot of the edge to the parent, and depth from row 0.
    potential: Vec<f64>,
    parent: Vec<usize>,
    parent_slot: Vec<usize>,
    depth: Vec<usize>,
    stack: Vec<usize>,
    /// The entering cell's cycle: basis slots, and whether each loses flow.
    cycle: Vec<(usize, bool)>,
}

impl Simplex {
    fn solve(&mut self, supply: &[f64], demand: &[f64], cost: &[f64]) -> f64 {
        let (m, n) = (supply.len(), demand.len());
        let cmax = cost.iter().fold(0.0f64, |hi, &c| hi.max(c));
        let tol = PIVOT_TOL * (m + n) as f64 * cmax;
        self.vogel_start(supply, demand, cost);
        // Bland's rule terminates in exact arithmetic; the cap only
        // guards against round-off making it cycle, and leaves a
        // feasible (near-optimal) basis if it is ever reached.
        let max_pivots = 64 * (m + n) * (m + n);
        let mut degenerate_run = 0;
        let mut bland = false;
        for _ in 0..max_pivots {
            self.build_tree(m, n, cost);
            let Some(enter) = self.entering(m, n, cost, tol, bland) else {
                break;
            };
            if self.pivot(m, n, enter) == 0.0 {
                degenerate_run += 1;
                bland |= degenerate_run > m + n;
            } else {
                degenerate_run = 0;
            }
        }
        self.cells
            .iter()
            .zip(&self.flow)
            .map(|(&(i, j), &x)| x * cost[i * n + j])
            .sum::<f64>()
            .max(0.0)
    }

    /// Vogel's approximation: repeatedly take the open line (row or
    /// column) whose two cheapest open cells differ most, fill its
    /// cheapest cell as far as supply and demand allow, and close one
    /// line. Closing exactly one line per cell (both at the last) leaves
    /// `m + n - 1` basic cells forming a spanning tree, zero-flow cells
    /// included. Each line's two cheapest open cells are cached, and only
    /// the lines whose pair lost a cell are rescanned.
    fn vogel_start(&mut self, supply: &[f64], demand: &[f64], cost: &[f64]) {
        let (m, n) = (supply.len(), demand.len());
        self.rest.clear();
        self.rest.extend_from_slice(supply);
        self.rest.extend_from_slice(demand);
        self.open.clear();
        self.open.resize(m + n, true);
        self.cells.clear();
        self.flow.clear();
        self.basic.clear();
        self.basic.resize(m * n, false);
        self.cheap.clear();
        self.penalty.clear();
        for line in 0..m + n {
            self.cheap.push(Cheapest::default());
            self.penalty.push(f64::NEG_INFINITY);
            self.rescan(line, m, n, cost);
        }
        let (mut rows, mut cols) = (m, n);
        loop {
            let vogel = if rows > 1 && cols > 1 {
                self.vogel_cell(m)
            } else {
                None
            };
            let (i, j) = vogel.unwrap_or_else(|| self.first_open(m));
            let x = self.rest[i].min(self.rest[m + j]);
            self.rest[i] -= x;
            self.rest[m + j] -= x;
            self.cells.push((i, j));
            self.flow.push(x);
            self.basic[i * n + j] = true;
            if rows == 1 && cols == 1 {
                break;
            }
            // The exhausted line closes; on a tie, the row. The last open
            // row or column stays open until the end.
            let close_row = cols == 1 || (rows > 1 && self.rest[i] <= self.rest[m + j]);
            let (closed, others, index) = if close_row {
                rows -= 1;
                (i, m..m + n, i)
            } else {
                cols -= 1;
                (m + j, 0..m, j)
            };
            self.open[closed] = false;
            self.penalty[closed] = f64::NEG_INFINITY;
            if rows > 1 && cols > 1 {
                for line in others {
                    let pair = self.cheap[line];
                    if self.open[line] && (pair.arg == index || pair.arg2 == index) {
                        self.rescan(line, m, n, cost);
                    }
                }
            }
        }
    }

    /// The first open row and the first open column.
    fn first_open(&self, m: usize) -> (usize, usize) {
        let (rows, cols) = self.open.split_at(m);
        let i = rows.iter().position(|&open| open).unwrap_or(0);
        let j = cols.iter().position(|&open| open).unwrap_or(0);
        (i, j)
    }

    /// Recomputes the two cheapest open cells of `line` (rows `0..m`,
    /// then columns) and its penalty, `-∞` when that is not a number
    /// (infinite or NaN costs).
    fn rescan(&mut self, line: usize, m: usize, n: usize, cost: &[f64]) {
        let (rows_open, cols_open) = self.open.split_at(m);
        let pair = if line < m {
            let row = &cost[line * n..(line + 1) * n];
            Cheapest::of(row.iter().zip(cols_open))
        } else {
            let column = cost[line - m..].iter().step_by(n);
            Cheapest::of(column.zip(rows_open))
        };
        let penalty = pair.lo2 - pair.lo;
        self.penalty[line] = if pair.arg == usize::MAX || penalty.is_nan() {
            f64::NEG_INFINITY
        } else {
            penalty
        };
        self.cheap[line] = pair;
    }

    /// The cell Vogel's rule fills next: the cheapest open cell of the
    /// open line with the largest penalty (second-cheapest minus cheapest
    /// open cost). Ties go to rows, then to lower indices. `None` when no
    /// line has a penalty.
    fn vogel_cell(&self, m: usize) -> Option<(usize, usize)> {
        let mut best = f64::NEG_INFINITY;
        let mut line = usize::MAX;
        for (l, &penalty) in self.penalty.iter().enumerate() {
            if penalty > best {
                best = penalty;
                line = l;
            }
        }
        (line != usize::MAX).then(|| {
            let k = self.cheap[line].arg;
            if line < m {
                (line, k)
            } else {
                (k, line - m)
            }
        })
    }

    /// Rebuilds the basis tree and its potentials: `u_0 = 0`, and
    /// `u_i + v_j = c_ij` on every basic cell.
    fn build_tree(&mut self, m: usize, n: usize, cost: &[f64]) {
        let nodes = m + n;
        let Self {
            cells,
            adj_start,
            adj,
            potential,
            parent,
            parent_slot,
            depth,
            stack,
            ..
        } = self;
        adj_start.clear();
        adj_start.resize(nodes + 1, 0);
        for &(i, j) in cells.iter() {
            adj_start[i + 1] += 1;
            adj_start[m + j + 1] += 1;
        }
        for v in 0..nodes {
            adj_start[v + 1] += adj_start[v];
        }
        adj.clear();
        adj.resize(2 * cells.len(), (0, 0));
        // `parent` doubles as the fill cursor before the walk resets it.
        parent.clear();
        parent.extend_from_slice(&adj_start[..nodes]);
        for (slot, &(i, j)) in cells.iter().enumerate() {
            let col = m + j;
            adj[parent[i]] = (col, slot);
            parent[i] += 1;
            adj[parent[col]] = (i, slot);
            parent[col] += 1;
        }
        parent.clear();
        parent.resize(nodes, usize::MAX);
        parent_slot.clear();
        parent_slot.resize(nodes, usize::MAX);
        depth.clear();
        depth.resize(nodes, usize::MAX);
        potential.clear();
        potential.resize(nodes, 0.0);
        depth[0] = 0;
        stack.clear();
        stack.push(0);
        while let Some(u) = stack.pop() {
            for &(v, slot) in &adj[adj_start[u]..adj_start[u + 1]] {
                if depth[v] != usize::MAX {
                    continue;
                }
                let (i, j) = cells[slot];
                depth[v] = depth[u] + 1;
                parent[v] = u;
                parent_slot[v] = slot;
                potential[v] = cost[i * n + j] - potential[u];
                stack.push(v);
            }
        }
    }

    /// The nonbasic cell to enter, if any has reduced cost below `-tol`:
    /// the most negative (ties to the lowest index), or under Bland's
    /// rule the lowest-index one.
    fn entering(
        &self,
        m: usize,
        n: usize,
        cost: &[f64],
        tol: f64,
        bland: bool,
    ) -> Option<(usize, usize)> {
        let (u, v) = self.potential.split_at(m);
        let mut best = -tol;
        let mut enter = None;
        for (i, (row, basic)) in cost
            .chunks_exact(n)
            .zip(self.basic.chunks_exact(n))
            .enumerate()
        {
            for j in 0..n {
                let reduced = row[j] - u[i] - v[j];
                if reduced < best && !basic[j] {
                    enter = Some((i, j));
                    if bland {
                        return enter;
                    }
                    best = reduced;
                }
            }
        }
        enter
    }

    /// Moves the most flow the cycle of `enter` allows and swaps `enter`
    /// into the basis for the cell that empties (ties to the lowest cell
    /// index). Returns the flow moved; zero is a degenerate pivot.
    fn pivot(&mut self, m: usize, n: usize, enter: (usize, usize)) -> f64 {
        // The cycle is the entering cell plus the tree path between its
        // row and its column. Walking up from both ends to their common
        // ancestor, the 1st, 3rd, ... edge from either end loses flow.
        let (mut a, mut b) = (enter.0, m + enter.1);
        let (mut steps_a, mut steps_b) = (0usize, 0usize);
        self.cycle.clear();
        while a != b {
            if self.depth[a] >= self.depth[b] {
                steps_a += 1;
                self.cycle.push((self.parent_slot[a], steps_a % 2 == 1));
                a = self.parent[a];
            } else {
                steps_b += 1;
                self.cycle.push((self.parent_slot[b], steps_b % 2 == 1));
                b = self.parent[b];
            }
        }
        let mut leave = usize::MAX;
        let mut theta = f64::INFINITY;
        for &(slot, loses) in &self.cycle {
            let x = self.flow[slot];
            if loses
                && (leave == usize::MAX
                    || x < theta
                    || (x == theta && self.cells[slot] < self.cells[leave]))
            {
                leave = slot;
                theta = x;
            }
        }
        for &(slot, loses) in &self.cycle {
            if loses {
                self.flow[slot] -= theta;
            } else {
                self.flow[slot] += theta;
            }
        }
        let (i, j) = self.cells[leave];
        self.basic[i * n + j] = false;
        self.basic[enter.0 * n + enter.1] = true;
        self.cells[leave] = enter;
        self.flow[leave] = theta;
        theta
    }
}

/// A line's two cheapest open cells during the Vogel start: costs and
/// indices along the line.
#[derive(Clone, Copy, Default)]
struct Cheapest {
    lo: f64,
    arg: usize,
    lo2: f64,
    arg2: usize,
}

impl Cheapest {
    /// The two cheapest of a line's `(cost, open)` cells; the first of
    /// equal costs counts as cheaper.
    fn of<'a>(cells: impl Iterator<Item = (&'a f64, &'a bool)>) -> Self {
        let (mut lo, mut arg, mut lo2, mut arg2) =
            (f64::INFINITY, usize::MAX, f64::INFINITY, usize::MAX);
        for (k, (&c, &open)) in cells.enumerate() {
            if open && c < lo2 {
                if c < lo {
                    (lo2, arg2, lo, arg) = (lo, arg, c, k);
                } else {
                    (lo2, arg2) = (c, k);
                }
            }
        }
        Self { lo, arg, lo2, arg2 }
    }
}

/// A successive-shortest-path transportation solver, the test oracle of
/// [`solve_transportation`]: the two must agree within round-off on every
/// input. Min-cost flow with Dijkstra over reduced costs, at most `m + n`
/// augmentations on the complete bipartite network, each a dense
/// `O((m + n)²)` Dijkstra. Tests and fixtures compare against it; the
/// engine never solves with it.
///
/// # Panics
///
/// Panics if `cost.len() != supply.len() * demand.len()`.
pub fn solve_transportation_reference(supply: &[f64], demand: &[f64], cost: &[f64]) -> f64 {
    let m = supply.len();
    let n = demand.len();
    assert_eq!(cost.len(), m * n, "cost matrix shape mismatch");
    if m == 0 || n == 0 {
        return 0.0;
    }

    // Node layout: 0..m supplies, m..m+n demands.
    let total = m + n;
    let mut remaining_supply: Vec<f64> = supply.to_vec();
    let mut remaining_demand: Vec<f64> = demand.to_vec();
    // Flow on forward arcs (i, j); residual arcs are implied.
    let mut flow = vec![0.0f64; m * n];
    // Johnson potentials keep reduced costs non-negative for Dijkstra.
    let mut potential = vec![0.0f64; total];
    let mut total_cost = 0.0f64;

    loop {
        let supply_left: f64 = remaining_supply.iter().sum();
        if supply_left <= EPS {
            break;
        }

        // Dijkstra from the set of supply nodes with remaining supply to any
        // demand node with remaining demand, over the residual network.
        let mut dist = vec![f64::INFINITY; total];
        let mut prev: Vec<Option<(usize, bool)>> = vec![None; total]; // (node, forward?)
        let mut done = vec![false; total];
        for i in 0..m {
            if remaining_supply[i] > EPS {
                dist[i] = 0.0;
            }
        }
        // Dense Dijkstra: the graph is complete bipartite, so O(V^2) beats a
        // heap for the small V used per object pair.
        for _ in 0..total {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for v in 0..total {
                if !done[v] && dist[v] < best {
                    best = dist[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            if u < m {
                // Forward arcs u -> m + j.
                for j in 0..n {
                    let v = m + j;
                    if done[v] {
                        continue;
                    }
                    let rc = cost[u * n + j] + potential[u] - potential[v];
                    debug_assert!(rc > -1e-7, "negative reduced cost {rc}");
                    let nd = dist[u] + rc.max(0.0);
                    if nd + EPS < dist[v] {
                        dist[v] = nd;
                        prev[v] = Some((u, true));
                    }
                }
            } else {
                // Residual arcs (m + j) -> i exist where flow[i][j] > 0.
                let j = u - m;
                for i in 0..m {
                    if done[i] || flow[i * n + j] <= EPS {
                        continue;
                    }
                    let rc = -cost[i * n + j] + potential[u] - potential[i];
                    debug_assert!(rc > -1e-7, "negative reduced cost {rc}");
                    let nd = dist[u] + rc.max(0.0);
                    if nd + EPS < dist[i] {
                        dist[i] = nd;
                        prev[i] = Some((u, false));
                    }
                }
            }
        }

        // Cheapest reachable demand node with remaining demand.
        let mut sink = usize::MAX;
        let mut best = f64::INFINITY;
        for j in 0..n {
            if remaining_demand[j] > EPS && dist[m + j] < best {
                best = dist[m + j];
                sink = m + j;
            }
        }
        if sink == usize::MAX {
            // Numerically exhausted; remaining mass is within tolerance.
            break;
        }

        // Update potentials (only for reached nodes).
        for v in 0..total {
            if dist[v].is_finite() {
                potential[v] += dist[v];
            }
        }

        // Trace the path back to a source, finding the bottleneck.
        let mut bottleneck = remaining_demand[sink - m];
        let mut v = sink;
        while let Some((u, forward)) = prev[v] {
            if forward {
                // Arc u -> v, infinite capacity: no constraint.
            } else {
                // Residual arc (v's flow): capacity flow[u_as_supply].
                let j = u - m;
                bottleneck = bottleneck.min(flow[v * n + j]);
            }
            v = u;
        }
        bottleneck = bottleneck.min(remaining_supply[v]);
        if bottleneck <= EPS {
            break;
        }

        // Apply the augmentation.
        let mut v = sink;
        while let Some((u, forward)) = prev[v] {
            if forward {
                let (i, j) = (u, v - m);
                flow[i * n + j] += bottleneck;
                total_cost += bottleneck * cost[i * n + j];
            } else {
                let (i, j) = (v, u - m);
                flow[i * n + j] -= bottleneck;
                total_cost -= bottleneck * cost[i * n + j];
            }
            v = u;
        }
        remaining_supply[v] -= bottleneck;
        remaining_demand[sink - m] -= bottleneck;
    }

    total_cost.max(0.0)
}

/// One pair's transportation problem — normalized weights and the cost
/// matrix — in buffers reused across calls on a thread.
#[derive(Default)]
struct Pair {
    supply: Vec<f64>,
    demand: Vec<f64>,
    cost: Vec<f64>,
    /// Column minima of the lower bound.
    col_min: Vec<f64>,
    /// `(cost, row, column)` of every cell, for the greedy pass.
    greedy: Vec<(f64, usize, usize)>,
}

impl Pair {
    /// Fills the normalized weights of both sides and the cost matrix
    /// `cost[i * n + j] = max(ground(i, j), 0)`.
    fn fill<A, B, F>(&mut self, wa: A, wb: B, sqrt_weights: bool, mut ground: F) -> Result<()>
    where
        A: ExactSizeIterator<Item = f32> + Clone,
        B: ExactSizeIterator<Item = f32> + Clone,
        F: FnMut(usize, usize) -> f64,
    {
        if wa.len() == 0 || wb.len() == 0 {
            return Err(CoreError::EmptyObject);
        }
        normalized_weights(wa, sqrt_weights, &mut self.supply)?;
        normalized_weights(wb, sqrt_weights, &mut self.demand)?;
        let (m, n) = (self.supply.len(), self.demand.len());
        self.cost.clear();
        for i in 0..m {
            for j in 0..n {
                let c = ground(i, j);
                debug_assert!(c >= 0.0 && c.is_finite(), "ground distance must be >= 0");
                self.cost.push(c.max(0.0));
            }
        }
        Ok(())
    }

    /// Copies in a problem [`Pose::stage`] staged.
    fn load(&mut self, supply: &[f64], demand: &[f64], cost: &[f64]) {
        for (buf, from) in [
            (&mut self.supply, supply),
            (&mut self.demand, demand),
            (&mut self.cost, cost),
        ] {
            buf.clear();
            buf.extend_from_slice(from);
        }
    }

    fn solve(&self) -> f64 {
        solve_transportation(&self.supply, &self.demand, &self.cost)
    }

    /// `max(Σ_i w_i · min_j c_ij, Σ_j v_j · min_i c_ij)` less
    /// [`BOUND_SLACK`] times the largest cost: every unit of mass leaves
    /// its row and enters its column at no less than the line's cheapest
    /// cost, so this bounds the exact EMD, and with it the greedy one,
    /// from below.
    fn lower_bound(&mut self) -> f64 {
        let n = self.demand.len();
        self.col_min.clear();
        self.col_min.resize(n, f64::INFINITY);
        let mut cmax = 0.0f64;
        let mut rows = 0.0;
        for (row, &w) in self.cost.chunks_exact(n).zip(&self.supply) {
            let mut row_min = f64::INFINITY;
            for (col_min, &c) in self.col_min.iter_mut().zip(row) {
                row_min = row_min.min(c);
                *col_min = col_min.min(c);
                cmax = cmax.max(c);
            }
            rows += w * row_min;
        }
        let cols: f64 = self
            .demand
            .iter()
            .zip(&self.col_min)
            .map(|(w, c)| w * c)
            .sum();
        let bound = rows.max(cols) - BOUND_SLACK * cmax;
        // Infinite costs make the bound meaningless; never prune on it.
        if bound.is_nan() {
            f64::NEG_INFINITY
        } else {
            bound
        }
    }

    /// Greedy transport: cells in increasing cost order, each moving as
    /// much mass as its row and column still hold.
    fn greedy(&mut self) -> f64 {
        let n = self.demand.len();
        self.greedy.clear();
        self.greedy.extend(
            self.cost
                .iter()
                .enumerate()
                .map(|(cell, &c)| (c, cell / n, cell % n)),
        );
        self.greedy
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut total = 0.0f64;
        for &(c, i, j) in &self.greedy {
            let f = self.supply[i].min(self.demand[j]);
            if f > EPS {
                self.supply[i] -= f;
                self.demand[j] -= f;
                total += f * c;
            }
        }
        total
    }
}

/// Runs `work` on this thread's [`Pair`] buffers.
fn with_pair<R>(work: impl FnOnce(&mut Pair) -> R) -> R {
    // Taken, not borrowed, so a re-entrant call cannot hit a borrow panic.
    let mut pair = PAIR.with(Cell::take);
    let out = work(&mut pair);
    PAIR.with(|cell| cell.set(pair));
    out
}

/// Fills `out` with `weights` scaled to sum to 1 — after the square-root
/// transform of [`ThresholdedEmd`] when `sqrt_weights` is set: each weight
/// becomes its square root over the sum of square roots, rounded to `f32`
/// (left as is if that sum is not positive).
///
/// This is the one weight transform of the EMD types and of the engine's
/// sketch ranking. Fails on a weight set whose sum is not positive.
fn normalized_weights<W>(weights: W, sqrt_weights: bool, out: &mut Vec<f64>) -> Result<()>
where
    W: Iterator<Item = f32> + Clone,
{
    out.clear();
    let root_sum: f64 = if sqrt_weights {
        weights.clone().map(|w| f64::from(w).sqrt()).sum()
    } else {
        0.0
    };
    if root_sum > 0.0 {
        out.extend(weights.map(|w| f64::from((f64::from(w).sqrt() / root_sum) as f32)));
    } else {
        out.extend(weights.map(f64::from));
    }
    let sum: f64 = out.iter().sum();
    if sum <= 0.0 {
        return Err(CoreError::InvalidWeights("weight sum not positive".into()));
    }
    for w in out.iter_mut() {
        *w /= sum;
    }
    Ok(())
}

/// Computes EMD given weight vectors and a pairwise ground-cost closure.
///
/// Weights are normalized internally so each side sums to 1 (the paper's
/// objects carry normalized weights already; normalization here makes the
/// function total). Returns an error if either side is empty or a weight sum
/// is not positive.
pub fn emd_with_costs<F>(wa: &[f32], wb: &[f32], ground: F) -> Result<f64>
where
    F: FnMut(usize, usize) -> f64,
{
    thresholded_emd_with_costs(wa, wb, f64::INFINITY, false, ground)
}

/// [`emd_with_costs`] with ground costs clamped at `tau` and, when
/// `sqrt_weights` is set, square-root transformed weights: the
/// [`ThresholdedEmd`] of two weight lists.
pub fn thresholded_emd_with_costs<F>(
    wa: &[f32],
    wb: &[f32],
    tau: f64,
    sqrt_weights: bool,
    mut ground: F,
) -> Result<f64>
where
    F: FnMut(usize, usize) -> f64,
{
    with_pair(|pair| {
        pair.fill(
            wa.iter().copied(),
            wb.iter().copied(),
            sqrt_weights,
            |i, j| clamp(ground(i, j), tau),
        )?;
        Ok(pair.solve())
    })
}

/// Greedy upper-bound approximation of EMD.
///
/// Considers all `(i, j)` pairs in increasing ground-cost order and moves as
/// much mass as possible along each. Exact when one side has a single
/// segment; otherwise an upper bound that is fast and usually tight for
/// well-separated clusters.
pub fn greedy_emd_with_costs<F>(wa: &[f32], wb: &[f32], ground: F) -> Result<f64>
where
    F: FnMut(usize, usize) -> f64,
{
    with_pair(|pair| {
        pair.fill(wa.iter().copied(), wb.iter().copied(), false, ground)?;
        Ok(pair.greedy())
    })
}

/// `d` clamped at `tau`; an infinite `tau` leaves every `d`, NaN included,
/// as it is.
fn clamp(d: f64, tau: f64) -> f64 {
    if tau < f64::INFINITY {
        d.min(tau)
    } else {
        d
    }
}

fn is_single(a: &DataObject, b: &DataObject) -> bool {
    a.num_segments() == 1 && b.num_segments() == 1
}

/// How an EMD type turns two objects into a transportation problem: its
/// ground distance, the clamp `tau` (infinite for none) and the weight
/// transform.
struct Pose<'g, G> {
    ground: &'g G,
    tau: f64,
    sqrt_weights: bool,
}

impl<G: SegmentDistance> Pose<'_, G> {
    fn check_dims(a: &DataObject, b: &DataObject) -> Result<()> {
        if a.dim() == b.dim() {
            Ok(())
        } else {
            Err(CoreError::DimensionMismatch {
                expected: a.dim(),
                actual: b.dim(),
            })
        }
    }

    fn ground(&self, a: &DataObject, b: &DataObject, i: usize, j: usize) -> f64 {
        let d = self.ground.eval(
            a.segment(i).vector.components(),
            b.segment(j).vector.components(),
        );
        clamp(d, self.tau)
    }

    /// Single-segment objects (3D shapes, genes): EMD degenerates to the
    /// (clamped) ground distance, with no solver and no buffers.
    fn single(&self, a: &DataObject, b: &DataObject) -> Option<f64> {
        is_single(a, b).then(|| self.ground(a, b, 0, 0))
    }

    fn fill(&self, pair: &mut Pair, a: &DataObject, b: &DataObject) -> Result<()> {
        pair.fill(
            a.segments().iter().map(|s| s.weight),
            b.segments().iter().map(|s| s.weight),
            self.sqrt_weights,
            |i, j| self.ground(a, b, i, j),
        )
    }

    fn exact(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
        Self::check_dims(a, b)?;
        if let Some(d) = self.single(a, b) {
            return Ok(d);
        }
        with_pair(|pair| {
            self.fill(pair, a, b)?;
            Ok(pair.solve())
        })
    }

    /// Stages the pair for [`Pose::finish_exact`] and returns its lower
    /// bound: a single-segment pair stages its distance, which is its own
    /// bound; any other stages its transportation problem.
    fn stage(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> Result<f64> {
        Self::check_dims(a, b)?;
        if let Some(d) = self.single(a, b) {
            staged.push(d);
            return Ok(d);
        }
        self.stage_problem(a, b, staged)
    }

    /// Stages `supply ++ demand ++ cost` and returns the problem's lower
    /// bound.
    fn stage_problem(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> Result<f64> {
        with_pair(|pair| {
            self.fill(pair, a, b)?;
            staged.extend_from_slice(&pair.supply);
            staged.extend_from_slice(&pair.demand);
            staged.extend_from_slice(&pair.cost);
            Ok(pair.lower_bound())
        })
    }

    /// The supply, demand and cost [`Pose::stage_problem`] staged for `a`
    /// and `b`, or `None` if `staged` holds something else.
    fn unstage<'s>(
        a: &DataObject,
        b: &DataObject,
        staged: &'s [f64],
    ) -> Option<(&'s [f64], &'s [f64], &'s [f64])> {
        let (m, n) = (a.num_segments(), b.num_segments());
        (staged.len() == m + n + m * n).then(|| {
            let (supply, rest) = staged.split_at(m);
            let (demand, cost) = rest.split_at(n);
            (supply, demand, cost)
        })
    }

    fn finish_exact(&self, a: &DataObject, b: &DataObject, staged: &[f64]) -> Result<f64> {
        match (is_single(a, b), staged) {
            (true, &[d]) => Ok(d),
            _ => match Self::unstage(a, b, staged) {
                Some((supply, demand, cost)) => Ok(solve_transportation(supply, demand, cost)),
                None => self.exact(a, b),
            },
        }
    }
}

/// Exact EMD object distance parameterized by a ground segment distance.
#[derive(Debug, Clone)]
pub struct Emd<G> {
    ground: G,
}

impl<G: SegmentDistance> Emd<G> {
    /// Creates an EMD object distance with the given ground distance.
    pub fn new(ground: G) -> Self {
        Self { ground }
    }

    /// The ground distance function.
    pub fn ground(&self) -> &G {
        &self.ground
    }

    fn pose(&self) -> Pose<'_, G> {
        Pose {
            ground: &self.ground,
            tau: f64::INFINITY,
            sqrt_weights: false,
        }
    }
}

impl<G: SegmentDistance> ObjectDistance for Emd<G> {
    fn name(&self) -> &'static str {
        "emd"
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
        self.pose().exact(a, b)
    }

    fn stage(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> Result<f64> {
        self.pose().stage(a, b, staged)
    }

    fn finish(&self, a: &DataObject, b: &DataObject, staged: &[f64]) -> Result<f64> {
        self.pose().finish_exact(a, b, staged)
    }
}

/// The improved EMD of [Lv, Charikar, Li — CIKM'04] used by the image system
/// (paper §5.1): ground distances are clamped at a threshold `tau` to limit
/// the influence of outlier segments, and segment weights may be transformed
/// by square root (then renormalized) to boost small but salient segments.
#[derive(Debug, Clone)]
pub struct ThresholdedEmd<G> {
    ground: G,
    tau: f64,
    sqrt_weights: bool,
}

impl<G: SegmentDistance> ThresholdedEmd<G> {
    /// Creates a thresholded EMD.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive and finite.
    pub fn new(ground: G, tau: f64, sqrt_weights: bool) -> Self {
        assert!(tau.is_finite() && tau > 0.0, "threshold must be positive");
        Self {
            ground,
            tau,
            sqrt_weights,
        }
    }

    /// The distance threshold `tau`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    fn pose(&self) -> Pose<'_, G> {
        Pose {
            ground: &self.ground,
            tau: self.tau,
            sqrt_weights: self.sqrt_weights,
        }
    }
}

impl<G: SegmentDistance> ObjectDistance for ThresholdedEmd<G> {
    fn name(&self) -> &'static str {
        "thresholded-emd"
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
        self.pose().exact(a, b)
    }

    fn stage(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> Result<f64> {
        self.pose().stage(a, b, staged)
    }

    fn finish(&self, a: &DataObject, b: &DataObject, staged: &[f64]) -> Result<f64> {
        self.pose().finish_exact(a, b, staged)
    }
}

/// Greedy-approximate EMD object distance (upper bound on [`Emd`]).
#[derive(Debug, Clone)]
pub struct GreedyEmd<G> {
    ground: G,
}

impl<G: SegmentDistance> GreedyEmd<G> {
    /// Creates a greedy EMD approximation with the given ground distance.
    pub fn new(ground: G) -> Self {
        Self { ground }
    }

    fn pose(&self) -> Pose<'_, G> {
        Pose {
            ground: &self.ground,
            tau: f64::INFINITY,
            sqrt_weights: false,
        }
    }
}

impl<G: SegmentDistance> ObjectDistance for GreedyEmd<G> {
    fn name(&self) -> &'static str {
        "greedy-emd"
    }

    fn distance(&self, a: &DataObject, b: &DataObject) -> Result<f64> {
        let pose = self.pose();
        Pose::<G>::check_dims(a, b)?;
        with_pair(|pair| {
            pose.fill(pair, a, b)?;
            Ok(pair.greedy())
        })
    }

    /// The exact EMD's bound, which the greedy upper bound cannot go under.
    fn stage(&self, a: &DataObject, b: &DataObject, staged: &mut Vec<f64>) -> Result<f64> {
        Pose::<G>::check_dims(a, b)?;
        self.pose().stage_problem(a, b, staged)
    }

    fn finish(&self, a: &DataObject, b: &DataObject, staged: &[f64]) -> Result<f64> {
        match Pose::<G>::unstage(a, b, staged) {
            Some((supply, demand, cost)) => with_pair(|pair| {
                pair.load(supply, demand, cost);
                Ok(pair.greedy())
            }),
            None => self.distance(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::lp::L1;
    use crate::vector::FeatureVector;

    fn obj(parts: &[(&[f32], f32)]) -> DataObject {
        DataObject::new(
            parts
                .iter()
                .map(|(c, w)| (FeatureVector::new(c.to_vec()).unwrap(), *w))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn transportation_single_pair() {
        let c = solve_transportation(&[1.0], &[1.0], &[3.5]);
        assert!((c - 3.5).abs() < 1e-9);
    }

    #[test]
    fn transportation_hand_example() {
        // Two suppliers (0.5, 0.5), two consumers (0.5, 0.5).
        // cost = [[0, 10], [10, 0]] -> optimal matches diagonally, cost 0.
        let c = solve_transportation(&[0.5, 0.5], &[0.5, 0.5], &[0.0, 10.0, 10.0, 0.0]);
        assert!(c.abs() < 1e-9);
        // cost = [[1, 2], [3, 1]]: best is 0.5*1 + 0.5*1 = 1.
        let c = solve_transportation(&[0.5, 0.5], &[0.5, 0.5], &[1.0, 2.0, 3.0, 1.0]);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transportation_requires_splitting() {
        // Classic example where mass from one supplier must split.
        // supply (0.7, 0.3), demand (0.4, 0.6), cost [[1, 4], [2, 1]].
        // Optimal: f00=0.4, f01=0.3, f11=0.3 => 0.4 + 1.2 + 0.3 = 1.9.
        let c = solve_transportation(&[0.7, 0.3], &[0.4, 0.6], &[1.0, 4.0, 2.0, 1.0]);
        assert!((c - 1.9).abs() < 1e-9, "got {c}");
    }

    #[test]
    fn transportation_rectangular() {
        // 3 suppliers, 2 consumers.
        let c = solve_transportation(
            &[0.2, 0.3, 0.5],
            &[0.6, 0.4],
            &[1.0, 5.0, 2.0, 1.0, 3.0, 2.0],
        );
        // Best: s0->d0 (0.2*1), s1->d1 (0.3*1), s2 splits d0 0.4*3 + d1 0.1*2.
        assert!((c - (0.2 + 0.3 + 1.2 + 0.2)).abs() < 1e-9, "got {c}");
    }

    /// With uniform weights and m == n, EMD reduces to the optimal assignment
    /// (Birkhoff–von Neumann); brute-force all permutations as ground truth.
    #[test]
    fn matches_bruteforce_assignment() {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 1 {
                return vec![vec![0]];
            }
            let mut out = Vec::new();
            for p in permutations(n - 1) {
                for pos in 0..n {
                    let mut q: Vec<usize> = p.iter().map(|&x| x + usize::from(x >= pos)).collect();
                    q.insert(0, pos);
                    // Rotate so insertion position varies; simpler: p maps
                    // 1..n, prepend pos.
                    out.push(q);
                }
            }
            out
        }
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / f64::from(u32::MAX)
        };
        for n in 2..=5usize {
            let w = vec![1.0f64 / n as f64; n];
            let mut cost = vec![0.0f64; n * n];
            for c in cost.iter_mut() {
                *c = next() * 10.0;
            }
            let solved = solve_transportation(&w, &w, &cost);
            let mut best = f64::INFINITY;
            for p in permutations(n) {
                let total: f64 = (0..n).map(|i| cost[i * n + p[i]]).sum::<f64>() / n as f64;
                best = best.min(total);
            }
            assert!(
                (solved - best).abs() < 1e-7,
                "n={n}: solver {solved} vs bruteforce {best}"
            );
        }
    }

    #[test]
    fn emd_identical_objects_is_zero() {
        let x = obj(&[(&[0.0, 0.0], 0.5), (&[3.0, 4.0], 0.5)]);
        let d = Emd::new(L1).distance(&x, &x).unwrap();
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn emd_single_segment_equals_ground() {
        let x = obj(&[(&[0.0, 0.0], 1.0)]);
        let y = obj(&[(&[3.0, 4.0], 1.0)]);
        let d = Emd::new(L1).distance(&x, &y).unwrap();
        assert!((d - 7.0).abs() < 1e-9);
    }

    #[test]
    fn emd_order_insensitive() {
        // "Two sound files that exhibit similar segments, but in different
        // order, would be judged similar by the EMD method" (paper §2).
        let x = obj(&[(&[0.0], 0.5), (&[10.0], 0.5)]);
        let y = obj(&[(&[10.0], 0.5), (&[0.0], 0.5)]);
        let d = Emd::new(L1).distance(&x, &y).unwrap();
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn emd_is_symmetric() {
        let x = obj(&[(&[0.0, 1.0], 0.3), (&[5.0, 2.0], 0.7)]);
        let y = obj(&[(&[1.0, 1.0], 0.6), (&[4.0, 0.0], 0.2), (&[9.0, 9.0], 0.2)]);
        let e = Emd::new(L1);
        let d1 = e.distance(&x, &y).unwrap();
        let d2 = e.distance(&y, &x).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn emd_triangle_inequality_on_metric_ground() {
        let x = obj(&[(&[0.0], 0.5), (&[2.0], 0.5)]);
        let y = obj(&[(&[1.0], 1.0)]);
        let z = obj(&[(&[5.0], 0.25), (&[3.0], 0.75)]);
        let e = Emd::new(L1);
        let dxy = e.distance(&x, &y).unwrap();
        let dyz = e.distance(&y, &z).unwrap();
        let dxz = e.distance(&x, &z).unwrap();
        assert!(dxz <= dxy + dyz + 1e-9);
    }

    #[test]
    fn greedy_is_upper_bound() {
        let x = obj(&[(&[0.0, 1.0], 0.3), (&[5.0, 2.0], 0.4), (&[7.0, 7.0], 0.3)]);
        let y = obj(&[(&[1.0, 1.0], 0.6), (&[4.0, 0.0], 0.4)]);
        let exact = Emd::new(L1).distance(&x, &y).unwrap();
        let greedy = GreedyEmd::new(L1).distance(&x, &y).unwrap();
        assert!(greedy >= exact - 1e-9, "greedy {greedy} < exact {exact}");
    }

    #[test]
    fn thresholded_emd_caps_outliers() {
        let x = obj(&[(&[0.0], 0.5), (&[1000.0], 0.5)]);
        let y = obj(&[(&[0.0], 0.5), (&[2000.0], 0.5)]);
        let plain = Emd::new(L1).distance(&x, &y).unwrap();
        let thresh = ThresholdedEmd::new(L1, 10.0, false)
            .distance(&x, &y)
            .unwrap();
        assert!(plain > 400.0);
        assert!(thresh <= 10.0 + 1e-9);
    }

    #[test]
    fn thresholded_emd_sqrt_weights_boost_small_segments() {
        // Small segment far away: sqrt weighting increases its influence.
        let x = obj(&[(&[0.0], 0.99), (&[5.0], 0.01)]);
        let y = obj(&[(&[0.0], 0.99), (&[9.0], 0.01)]);
        let plain = ThresholdedEmd::new(L1, 100.0, false)
            .distance(&x, &y)
            .unwrap();
        let sqrt = ThresholdedEmd::new(L1, 100.0, true)
            .distance(&x, &y)
            .unwrap();
        assert!(sqrt > plain);
    }

    #[test]
    fn emd_rejects_dim_mismatch() {
        let x = obj(&[(&[0.0, 1.0], 1.0)]);
        let y = obj(&[(&[0.0], 1.0)]);
        assert!(Emd::new(L1).distance(&x, &y).is_err());
    }

    #[test]
    fn emd_with_costs_normalizes_weights() {
        // Unnormalized weights give the same answer as normalized ones.
        let d1 =
            emd_with_costs(&[2.0, 2.0], &[4.0], |i, _| if i == 0 { 1.0 } else { 3.0 }).unwrap();
        let d2 =
            emd_with_costs(&[0.5, 0.5], &[1.0], |i, _| if i == 0 { 1.0 } else { 3.0 }).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
        assert!((d1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn emd_with_costs_rejects_bad_input() {
        assert!(emd_with_costs(&[], &[1.0], |_, _| 0.0).is_err());
        assert!(emd_with_costs(&[0.0], &[1.0], |_, _| 0.0).is_err());
        assert!(greedy_emd_with_costs(&[], &[1.0], |_, _| 0.0).is_err());
    }

    #[test]
    fn greedy_exact_when_one_side_single() {
        let x = obj(&[(&[0.0], 0.5), (&[4.0], 0.5)]);
        let y = obj(&[(&[2.0], 1.0)]);
        let exact = Emd::new(L1).distance(&x, &y).unwrap();
        let greedy = GreedyEmd::new(L1).distance(&x, &y).unwrap();
        assert!((exact - greedy).abs() < 1e-9);
        assert!((exact - 2.0).abs() < 1e-9);
    }
}
