//! Path conditions: the control condition under which a scope block
//! executes, expressed as an ANDed set of branch outcomes.
//!
//! Because scope formation duplicates every join block (the paper's
//! fallback for keeping predicates in the ANDed form, Section 3.3), every
//! block of a scope is reached by exactly one path from the header, and
//! its condition is a pure conjunction of `(branch, polarity)` terms — one
//! per branch node on that path.  Terms are keyed by the *scope node index*
//! of the branch (not the CFG block), since duplication can place the same
//! CFG block at several tree positions.
//!
//! # Representation
//!
//! A condition is two node bitmasks, the way the machine holds a
//! [`Predicate`] as two condition masks (Section 3.2's masked match): bit
//! `n` of `on` is set when branch node `n` is on the path, and bit `n` of
//! `taken` when its polarity is true (`taken` is always a subset of `on`,
//! so equality stays structural).  A condition is therefore `Copy`, and
//! [`extend`](PathCond::extend), [`implies`](PathCond::implies),
//! [`disjoint`](PathCond::disjoint) and [`merge`](PathCond::merge) are a
//! few mask operations with no allocation.  The price is a node limit:
//! a scope may have at most [`PathCond::MAX_NODES`] nodes, so
//! [`schedule`](crate::schedule) rejects a wider
//! [`SchedConfig::max_blocks`](crate::SchedConfig::max_blocks) with
//! [`SchedError::ScopeTooWide`](crate::SchedError::ScopeTooWide).

use psb_isa::{CondReg, Predicate};
use std::collections::BTreeMap;
use std::fmt;

/// An ANDed set of branch outcomes along the unique path from a scope
/// header to a node.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct PathCond {
    /// Branch nodes on the path, one bit per scope node index.
    on: u64,
    /// The nodes of `on` whose outcome on the path is `true`.
    taken: u64,
}

impl PathCond {
    /// The most scope nodes a path condition can name: node indices
    /// `0..MAX_NODES`, one bit each.
    pub const MAX_NODES: usize = u64::BITS as usize;

    /// The empty condition (the scope header's path).
    pub fn root() -> PathCond {
        PathCond::default()
    }

    /// Extends the path with one more branch outcome.
    ///
    /// # Panics
    ///
    /// Panics if the branch already appears (a path passes each tree node
    /// once), or if `branch_node` is not below [`MAX_NODES`](Self::MAX_NODES).
    #[must_use]
    pub fn extend(&self, branch_node: usize, taken: bool) -> PathCond {
        assert!(
            branch_node < Self::MAX_NODES,
            "branch node {branch_node} is past the {}-node path limit",
            Self::MAX_NODES
        );
        let bit = 1u64 << branch_node;
        assert!(
            self.on & bit == 0,
            "branch node {branch_node} already on the path"
        );
        PathCond {
            on: self.on | bit,
            taken: if taken { self.taken | bit } else { self.taken },
        }
    }

    /// Number of branches on the path (the speculation depth of
    /// instructions at this node).
    pub fn depth(&self) -> usize {
        self.on.count_ones() as usize
    }

    /// Whether this is the header's (empty) condition.
    pub fn is_root(&self) -> bool {
        self.on == 0
    }

    /// The `(branch_node, polarity)` terms in path (tree) order — branch
    /// node indices increase from root to leaf because scope formation
    /// numbers nodes in growth order.
    pub fn terms(&self) -> impl Iterator<Item = (usize, bool)> {
        let (mut rest, taken) = (self.on, self.taken);
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let node = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some((node, taken >> node & 1 == 1))
        })
    }

    /// Whether `self` implies `other` (its terms are a superset).
    pub fn implies(&self, other: &PathCond) -> bool {
        other.on & !self.on == 0 && (self.taken ^ other.taken) & other.on == 0
    }

    /// Whether the two conditions cannot hold together (some branch
    /// appears with opposite polarity).
    pub fn disjoint(&self, other: &PathCond) -> bool {
        self.on & other.on & (self.taken ^ other.taken) != 0
    }

    /// The disjunction of two path conditions, if it is still expressible
    /// in the ANDed form (Section 3.2's predicate limitation).
    ///
    /// This is the *equivalent block* rule of Section 3.3: at a join block
    /// the two incoming conditions `P & c` and `P & !c` merge back to `P`;
    /// a condition that implies the other is absorbed by it.  Returns
    /// `None` when the disjunction is not ANDed-representable, in which
    /// case the join must be duplicated.
    pub fn merge(&self, other: &PathCond) -> Option<PathCond> {
        if self.implies(other) {
            return Some(*other);
        }
        if other.implies(self) {
            return Some(*self);
        }
        let diffs = self.taken ^ other.taken;
        (self.on == other.on && diffs.count_ones() == 1).then_some(PathCond {
            on: self.on & !diffs,
            taken: self.taken & !diffs,
        })
    }

    /// Encodes the condition as a machine [`Predicate`] using the scope's
    /// branch-to-CCR assignment.
    ///
    /// # Panics
    ///
    /// Panics if a branch on the path has no assigned condition register —
    /// scope formation assigns one to every in-scope branch.
    pub fn to_predicate(&self, cond_of_branch: &BTreeMap<usize, CondReg>) -> Predicate {
        let mut p = Predicate::always();
        for (node, taken) in self.terms() {
            let c = *cond_of_branch
                .get(&node)
                .unwrap_or_else(|| panic!("branch node {node} has no condition register"));
            p = if taken { p.and_pos(c) } else { p.and_neg(c) };
        }
        p
    }
}

/// Prints the terms as a `{node: polarity}` map in path order.
impl fmt::Debug for PathCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.terms()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_and_depth() {
        let p = PathCond::root();
        assert!(p.is_root());
        let p1 = p.extend(0, true);
        let p2 = p1.extend(3, false);
        assert_eq!(p2.depth(), 2);
        assert_eq!(p2.terms().collect::<Vec<_>>(), vec![(0, true), (3, false)]);
    }

    #[test]
    #[should_panic(expected = "already on the path")]
    fn double_extend_panics() {
        let _ = PathCond::root().extend(0, true).extend(0, false);
    }

    #[test]
    fn implication_and_disjointness() {
        let shallow = PathCond::root().extend(0, true);
        let deep = shallow.extend(1, false);
        let other = PathCond::root().extend(0, false);
        assert!(deep.implies(&shallow));
        assert!(!shallow.implies(&deep));
        assert!(deep.implies(&deep));
        assert!(shallow.disjoint(&other));
        assert!(deep.disjoint(&other));
        assert!(!deep.disjoint(&shallow));
    }

    #[test]
    fn merge_diamond_join() {
        let p = PathCond::root().extend(0, true);
        let a = p.extend(1, true);
        let b = p.extend(1, false);
        assert_eq!(a.merge(&b), Some(p));
        assert_eq!(b.merge(&a), Some(p));
    }

    #[test]
    fn merge_absorption() {
        let p = PathCond::root().extend(0, true);
        let deeper = p.extend(1, false);
        assert_eq!(p.merge(&deeper), Some(p));
        assert_eq!(deeper.merge(&p), Some(p));
        assert_eq!(p.merge(&p), Some(p));
    }

    #[test]
    fn merge_unrepresentable() {
        // c0&c1 | !c0&!c1 is not an ANDed predicate.
        let a = PathCond::root().extend(0, true).extend(1, true);
        let b = PathCond::root().extend(0, false).extend(1, false);
        assert_eq!(a.merge(&b), None);
        // Different key sets without implication.
        let c = PathCond::root().extend(0, true).extend(2, true);
        let d = PathCond::root().extend(0, false).extend(1, true);
        assert_eq!(c.merge(&d), None);
    }

    #[test]
    fn terms_are_listed_in_node_order_whatever_the_extension_order() {
        let p = PathCond::root().extend(63, true).extend(5, false);
        let q = PathCond::root().extend(5, false).extend(63, true);
        assert_eq!(p, q);
        assert_eq!(p.terms().collect::<Vec<_>>(), vec![(5, false), (63, true)]);
        assert_eq!(format!("{p:?}"), "{5: false, 63: true}");
    }

    #[test]
    #[should_panic(expected = "past the 64-node path limit")]
    fn a_node_past_the_mask_panics() {
        let _ = PathCond::root().extend(PathCond::MAX_NODES, true);
    }

    #[test]
    fn predicate_encoding() {
        let mut map = BTreeMap::new();
        map.insert(0usize, CondReg::new(0));
        map.insert(2usize, CondReg::new(1));
        let p = PathCond::root().extend(0, true).extend(2, false);
        assert_eq!(p.to_predicate(&map).to_string(), "c0&!c1");
        assert!(PathCond::root().to_predicate(&map).is_always());
    }

    /// The representation the bitset replaced: one map entry per branch
    /// node, with the old implementations of each query.
    mod model {
        use std::collections::BTreeMap;

        pub type Terms = BTreeMap<usize, bool>;

        pub fn implies(a: &Terms, b: &Terms) -> bool {
            b.iter().all(|(k, v)| a.get(k) == Some(v))
        }

        pub fn disjoint(a: &Terms, b: &Terms) -> bool {
            a.iter().any(|(k, v)| matches!(b.get(k), Some(o) if o != v))
        }

        pub fn merge(a: &Terms, b: &Terms) -> Option<Terms> {
            if implies(a, b) {
                return Some(b.clone());
            }
            if implies(b, a) {
                return Some(a.clone());
            }
            if a.len() == b.len() && a.keys().eq(b.keys()) {
                let diffs: Vec<usize> = a
                    .iter()
                    .filter(|(k, v)| b[k] != **v)
                    .map(|(&k, _)| k)
                    .collect();
                if diffs.len() == 1 {
                    let mut t = a.clone();
                    t.remove(&diffs[0]);
                    return Some(t);
                }
            }
            None
        }
    }

    /// A path over `nodes`: `state[i]` 0 leaves `nodes[i]` off the path,
    /// 1 and 2 put it on with polarity true and false (a repeated node
    /// keeps its first polarity).
    fn path(nodes: &[usize], state: &[u8]) -> (PathCond, model::Terms) {
        let (mut p, mut m) = (PathCond::root(), model::Terms::new());
        for (&n, &s) in nodes.iter().zip(state) {
            if s != 0 && !m.contains_key(&n) {
                m.insert(n, s == 1);
                p = p.extend(n, s == 1);
            }
        }
        (p, m)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]
        #[test]
        fn bitset_agrees_with_the_map_model(
            nodes in proptest::collection::vec(0..PathCond::MAX_NODES, 5),
            a in proptest::collection::vec(0..3u8, 5),
            b in proptest::collection::vec(0..3u8, 5),
        ) {
            // Five candidate nodes shared by both paths, so they often
            // share terms, imply each other or differ in one polarity.
            let ((p, pm), (q, qm)) = (path(&nodes, &a), path(&nodes, &b));
            let terms = |m: &model::Terms| m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(p.terms().collect::<Vec<_>>(), terms(&pm));
            proptest::prop_assert_eq!(p.depth(), pm.len());
            proptest::prop_assert_eq!(p.is_root(), pm.is_empty());
            proptest::prop_assert_eq!(p.implies(&q), model::implies(&pm, &qm));
            proptest::prop_assert_eq!(q.implies(&p), model::implies(&qm, &pm));
            proptest::prop_assert_eq!(p.disjoint(&q), model::disjoint(&pm, &qm));
            proptest::prop_assert_eq!(
                p.merge(&q).map(|m| m.terms().collect::<Vec<_>>()),
                model::merge(&pm, &qm).map(|m| terms(&m))
            );
            proptest::prop_assert_eq!(p == q, pm == qm);
        }
    }
}
