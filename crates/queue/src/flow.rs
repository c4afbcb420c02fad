//! The routing decision `l^s_ij(t)`: packets moved per session per link.

use greencell_net::{NodeId, SessionId};
use greencell_units::Packets;

/// A sparse per-slot routing decision: `l^s_ij(t)` packets of session `s`
/// forwarded from node `i` to node `j`.
///
/// Produced by the S3 routing subproblem and consumed by both queue banks:
/// `Σ_j l^s_ij` is the service of data queue `Q^s_i`, `Σ_j l^s_ji` its
/// arrivals, and `Σ_s l^s_ij` the arrivals of virtual link queue `G_ij`.
///
/// Only the non-zero entries are stored, in ascending `(s, i, j)` order, so
/// a plan costs memory and time in proportion to the flows that move, not
/// to `sessions × nodes²`. [`FlowPlan::iter_nonzero`] yields exactly that
/// order — the row-major order of the dense `l^s_ij` array — which is the
/// summation order of Ψ̂₃ and therefore part of the bit-identity contract.
/// Writing zero removes an entry, so two plans with the same flows compare
/// equal however they were built.
///
/// # Examples
///
/// ```
/// use greencell_net::{NodeId, SessionId};
/// use greencell_queue::FlowPlan;
/// use greencell_units::Packets;
///
/// let mut plan = FlowPlan::new(3, 1);
/// let (s, a, b) = (SessionId::from_index(0), NodeId::from_index(0), NodeId::from_index(2));
/// plan.set(s, a, b, Packets::new(4));
/// assert_eq!(plan.outflow(s, a).count(), 4);
/// assert_eq!(plan.inflow(s, b).count(), 4);
/// assert_eq!(plan.link_total(a, b).count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowPlan {
    nodes: usize,
    sessions: usize,
    /// The non-zero `l^s_ij` as `(s, i, j, packets)`, ascending in
    /// `(s, i, j)`.
    entries: Vec<(SessionId, NodeId, NodeId, Packets)>,
}

impl FlowPlan {
    /// Creates an all-zero plan for `nodes` nodes and `sessions` sessions.
    #[must_use]
    pub fn new(nodes: usize, sessions: usize) -> Self {
        Self {
            nodes,
            sessions,
            entries: Vec::new(),
        }
    }

    /// Re-dimensions the plan to `nodes` × `sessions` and zeroes every
    /// entry, retaining the backing allocation. The result is
    /// indistinguishable from [`FlowPlan::new`] with the same dimensions;
    /// this is the per-slot arena's reuse path (no heap traffic once the
    /// buffer has reached its steady-state size).
    pub fn reset(&mut self, nodes: usize, sessions: usize) {
        self.nodes = nodes;
        self.sessions = sessions;
        self.entries.clear();
    }

    /// Makes room for `entries` non-zero flows in total, so filling the
    /// plan up to that many never allocates; a no-op once the capacity is
    /// there.
    pub fn reserve(&mut self, entries: usize) {
        self.entries
            .reserve(entries.saturating_sub(self.entries.len()));
    }

    /// The empty 0×0 plan — the state a retained arena plan starts from
    /// before its first [`FlowPlan::reset`].
    #[must_use]
    pub fn empty() -> Self {
        Self::new(0, 0)
    }

    /// Position of `(s, i, j)` in `entries`: `Ok` if stored, `Err` with the
    /// insertion point otherwise.
    fn find(&self, s: SessionId, i: NodeId, j: NodeId) -> Result<usize, usize> {
        assert!(
            s.index() < self.sessions,
            "session {} out of range for a plan over {} sessions",
            s.index(),
            self.sessions
        );
        assert!(
            i.index() < self.nodes && j.index() < self.nodes,
            "link {i} → {j} out of range for a plan over {} nodes",
            self.nodes
        );
        self.entries
            .binary_search_by(|&(es, ei, ej, _)| (es, ei, ej).cmp(&(s, i, j)))
    }

    /// Number of nodes this plan spans.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of sessions this plan spans.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Sets `l^s_ij`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (no self-loops) or any index is out of range.
    pub fn set(&mut self, s: SessionId, i: NodeId, j: NodeId, packets: Packets) {
        assert!(i != j, "self-loop flow {i} → {j}");
        match (self.find(s, i, j), packets == Packets::ZERO) {
            (Ok(k), true) => {
                self.entries.remove(k);
            }
            (Ok(k), false) => self.entries[k].3 = packets,
            (Err(_), true) => {}
            (Err(k), false) => self.entries.insert(k, (s, i, j, packets)),
        }
    }

    /// Reads `l^s_ij`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn get(&self, s: SessionId, i: NodeId, j: NodeId) -> Packets {
        self.find(s, i, j)
            .map_or(Packets::ZERO, |k| self.entries[k].3)
    }

    /// The stored entries of session `s`, ascending in `(i, j)`.
    fn session_entries(&self, s: SessionId) -> &[(SessionId, NodeId, NodeId, Packets)] {
        let lo = self.entries.partition_point(|e| e.0 < s);
        let hi = self.entries.partition_point(|e| e.0 <= s);
        &self.entries[lo..hi]
    }

    /// Total session-`s` packets leaving node `i`: `Σ_j l^s_ij`.
    #[must_use]
    pub fn outflow(&self, s: SessionId, i: NodeId) -> Packets {
        self.session_entries(s)
            .iter()
            .filter(|e| e.1 == i)
            .map(|e| e.3)
            .sum()
    }

    /// Total session-`s` packets entering node `i`: `Σ_j l^s_ji`.
    #[must_use]
    pub fn inflow(&self, s: SessionId, i: NodeId) -> Packets {
        self.session_entries(s)
            .iter()
            .filter(|e| e.2 == i)
            .map(|e| e.3)
            .sum()
    }

    /// All-session packets on link `(i, j)`: `Σ_s l^s_ij` — the arrivals of
    /// virtual queue `G_ij`.
    #[must_use]
    pub fn link_total(&self, i: NodeId, j: NodeId) -> Packets {
        self.entries
            .iter()
            .filter(|e| e.1 == i && e.2 == j)
            .map(|e| e.3)
            .sum()
    }

    /// Iterates over all non-zero entries as `(s, i, j, packets)`, in
    /// ascending `(s, i, j)` order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (SessionId, NodeId, NodeId, Packets)> + '_ {
        self.entries.iter().copied()
    }

    /// Total packets moved anywhere this slot.
    #[must_use]
    pub fn total(&self) -> Packets {
        self.entries.iter().map(|e| e.3).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn set_get_round_trip() {
        let mut p = FlowPlan::new(4, 2);
        p.set(SessionId::from_index(1), ids(0), ids(3), Packets::new(5));
        assert_eq!(p.get(SessionId::from_index(1), ids(0), ids(3)).count(), 5);
        assert_eq!(p.get(SessionId::from_index(0), ids(0), ids(3)).count(), 0);
    }

    #[test]
    fn flows_aggregate_correctly() {
        let s0 = SessionId::from_index(0);
        let s1 = SessionId::from_index(1);
        let mut p = FlowPlan::new(3, 2);
        p.set(s0, ids(0), ids(1), Packets::new(2));
        p.set(s1, ids(0), ids(1), Packets::new(3));
        p.set(s0, ids(2), ids(0), Packets::new(7));
        assert_eq!(p.outflow(s0, ids(0)).count(), 2);
        assert_eq!(p.inflow(s0, ids(0)).count(), 7);
        assert_eq!(p.link_total(ids(0), ids(1)).count(), 5);
        assert_eq!(p.total().count(), 12);
    }

    #[test]
    fn iter_nonzero_lists_all() {
        let mut p = FlowPlan::new(3, 1);
        p.set(SessionId::from_index(0), ids(1), ids(2), Packets::new(9));
        let entries: Vec<_> = p.iter_nonzero().collect();
        assert_eq!(
            entries,
            vec![(SessionId::from_index(0), ids(1), ids(2), Packets::new(9))]
        );
    }

    #[test]
    fn reset_matches_fresh_plan() {
        let mut p = FlowPlan::new(4, 2);
        p.set(SessionId::from_index(1), ids(0), ids(3), Packets::new(5));
        p.reset(3, 1);
        assert_eq!(p, FlowPlan::new(3, 1));
        p.set(SessionId::from_index(0), ids(1), ids(2), Packets::new(2));
        p.reset(4, 2);
        assert_eq!(p, FlowPlan::new(4, 2));
    }

    #[test]
    fn iter_nonzero_is_ascending_whatever_the_write_order() {
        let mut p = FlowPlan::new(3, 2);
        let keys = [(1, 0, 2), (0, 2, 1), (1, 0, 1), (0, 0, 2), (0, 2, 0)];
        for (k, &(s, i, j)) in keys.iter().enumerate() {
            p.set(
                SessionId::from_index(s),
                ids(i),
                ids(j),
                Packets::new(k as u64 + 1),
            );
        }
        let listed: Vec<_> = p
            .iter_nonzero()
            .map(|(s, i, j, _)| (s.index(), i.index(), j.index()))
            .collect();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn writing_zero_removes_the_entry() {
        let s0 = SessionId::from_index(0);
        let mut p = FlowPlan::new(3, 1);
        p.set(s0, ids(0), ids(1), Packets::new(3));
        p.set(s0, ids(0), ids(1), Packets::ZERO);
        p.set(s0, ids(1), ids(2), Packets::ZERO);
        assert_eq!(p, FlowPlan::new(3, 1));
        assert_eq!(p.iter_nonzero().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_an_out_of_range_node() {
        // Node 3 of a 3-node plan: a dense layout would alias (s, 1, 0).
        let mut p = FlowPlan::new(3, 1);
        p.set(SessionId::from_index(0), ids(0), ids(3), Packets::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_an_out_of_range_session() {
        let p = FlowPlan::new(3, 1);
        let _ = p.get(SessionId::from_index(1), ids(0), ids(1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut p = FlowPlan::new(2, 1);
        p.set(SessionId::from_index(0), ids(1), ids(1), Packets::new(1));
    }
}
