//! Adjacency structure and graph algorithms over stage precedence edges.
//!
//! [`Adjacency`] stores the edges of a job DAG in both directions so that
//! schedulers can cheaply ask for parents (prerequisites) and children
//! (dependents) of a stage.  It also provides topological ordering, cycle
//! detection, and reachability queries used by the analysis module.

use crate::error::DagError;
use crate::ids::StageId;
use serde::{Deserialize, Serialize};

/// Directed adjacency for a fixed number of stages `0..n`, stored as
/// compressed sparse rows in both directions: stage `s`'s children are
/// `children[child_offsets[s]..child_offsets[s + 1]]`, its parents likewise,
/// each list in edge-insertion order.  Four heap blocks per DAG, whatever
/// its size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    child_offsets: Vec<u32>,
    /// Stages that depend on each stage, concatenated.
    children: Vec<StageId>,
    parent_offsets: Vec<u32>,
    /// Stages that each stage depends on, concatenated.
    parents: Vec<StageId>,
}

impl Adjacency {
    /// Builds the adjacency of `n` stages from precedence edges
    /// `from -> to` in O(stages + edges): after the endpoint checks, one
    /// pass counts degrees and a second places the edges.
    ///
    /// Returns the error that inserting the edges one by one, in order,
    /// would hit first: the first edge that names an unknown stage (`from`
    /// checked before `to`), is a self-loop, or repeats an earlier edge.
    pub fn from_edges(n: usize, edges: &[(StageId, StageId)]) -> Result<Self, DagError> {
        let malformed = |(from, to): (StageId, StageId)| {
            if from.index() >= n {
                Some(DagError::UnknownStage { stage: from })
            } else if to.index() >= n {
                Some(DagError::UnknownStage { stage: to })
            } else if from == to {
                Some(DagError::SelfLoop { stage: from })
            } else {
                None
            }
        };
        // Only the edges before the first malformed one are ever inserted.
        let (placed, first_malformed) = match edges
            .iter()
            .enumerate()
            .find_map(|(i, &edge)| malformed(edge).map(|error| (i, error)))
        {
            Some((i, error)) => (&edges[..i], Some(error)),
            None => (edges, None),
        };
        assert!(
            placed.len() <= u32::MAX as usize,
            "edge count overflows u32 offsets"
        );
        let mut child_offsets = vec![0u32; n + 1];
        let mut parent_offsets = vec![0u32; n + 1];
        for &(from, to) in placed {
            child_offsets[from.index() + 1] += 1;
            parent_offsets[to.index() + 1] += 1;
        }
        for s in 0..n {
            child_offsets[s + 1] += child_offsets[s];
            parent_offsets[s + 1] += parent_offsets[s];
        }
        // Placing the edges in order fills each stage's lists from the
        // front, so the filled part of a list is exactly the edges an
        // in-order insertion would already hold.  An edge repeats an
        // earlier one exactly when `from` is already among `to`'s parents
        // (the same test as `to` among `from`'s children), and parent
        // lists are the short ones in the generated DAGs.  One block holds
        // both directions' placement cursors: children's, then parents'.
        let mut next = Vec::with_capacity(2 * n);
        next.extend_from_slice(&child_offsets[..n]);
        next.extend_from_slice(&parent_offsets[..n]);
        let (next_child, next_parent) = next.split_at_mut(n);
        let mut children = vec![StageId(0); placed.len()];
        let mut parents = vec![StageId(0); placed.len()];
        for &(from, to) in placed {
            let (f, t) = (from.index(), to.index());
            let filled = parent_offsets[t] as usize..next_parent[t] as usize;
            if parents[filled].contains(&from) {
                return Err(DagError::DuplicateEdge { from, to });
            }
            children[next_child[f] as usize] = to;
            next_child[f] += 1;
            parents[next_parent[t] as usize] = from;
            next_parent[t] += 1;
        }
        match first_malformed {
            Some(error) => Err(error),
            None => Ok(Adjacency {
                child_offsets,
                children,
                parent_offsets,
                parents,
            }),
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.child_offsets.len() - 1
    }

    /// True if there are no stages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.children.len()
    }

    /// Stages that directly depend on `s`.
    pub fn children(&self, s: StageId) -> &[StageId] {
        let i = s.index();
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Stages that `s` directly depends on.
    pub fn parents(&self, s: StageId) -> &[StageId] {
        let i = s.index();
        &self.parents[self.parent_offsets[i] as usize..self.parent_offsets[i + 1] as usize]
    }

    /// Stages with no parents (ready as soon as the job arrives).
    pub fn sources(&self) -> Vec<StageId> {
        (0..self.len() as u32)
            .map(StageId)
            .filter(|s| self.parents(*s).is_empty())
            .collect()
    }

    /// Stages with no children (the job completes when these complete).
    pub fn sinks(&self) -> Vec<StageId> {
        (0..self.len() as u32)
            .map(StageId)
            .filter(|s| self.children(*s).is_empty())
            .collect()
    }

    /// Kahn's algorithm.  Returns a topological order or an error naming a
    /// stage that is part of (or blocked behind) a cycle.
    ///
    /// The order is its own FIFO queue: a stage is appended when its last
    /// parent is visited and visited when the cursor reaches it, so the
    /// visit order is a queue's, in one block of `n` stages.
    pub fn topological_order(&self) -> Result<Vec<StageId>, DagError> {
        let n = self.len();
        let mut indeg: Vec<u32> = self
            .parent_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        let mut order = Vec::with_capacity(n);
        order.extend((0..n as u32).map(StageId).filter(|s| indeg[s.index()] == 0));
        let mut visited = 0;
        while let Some(&s) = order.get(visited) {
            visited += 1;
            for &c in self.children(s) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    order.push(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| StageId(i as u32))
                .expect("some stage must have positive in-degree if order is incomplete");
            Err(DagError::CycleDetected { stage: stuck })
        }
    }

    /// Returns `true` if `to` is reachable from `from` by following edges.
    pub fn reachable(&self, from: StageId, to: StageId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(s) = stack.pop() {
            for &c in self.children(s) {
                if c == to {
                    return true;
                }
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// All stages reachable from `s` (excluding `s` itself): its transitive
    /// dependents.
    pub fn descendants(&self, s: StageId) -> Vec<StageId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![s];
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &c in self.children(u) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.sort();
        out
    }

    /// All stages from which `s` is reachable (excluding `s` itself): its
    /// transitive prerequisites.
    pub fn ancestors(&self, s: StageId) -> Vec<StageId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![s];
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &p in self.parents(u) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StageId {
        StageId(i)
    }

    /// Diamond: 0 -> {1,2} -> 3
    fn diamond() -> Adjacency {
        Adjacency::from_edges(4, &[(s(0), s(1)), (s(0), s(2)), (s(1), s(3)), (s(2), s(3))]).unwrap()
    }

    #[test]
    fn sources_and_sinks() {
        let a = diamond();
        assert_eq!(a.sources(), vec![StageId(0)]);
        assert_eq!(a.sinks(), vec![StageId(3)]);
        assert_eq!(a.num_edges(), 4);
    }

    #[test]
    fn parents_and_children() {
        let a = diamond();
        assert_eq!(a.children(StageId(0)), &[StageId(1), StageId(2)]);
        assert_eq!(a.parents(StageId(3)), &[StageId(1), StageId(2)]);
        assert!(a.parents(StageId(0)).is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let a = diamond();
        let order = a.topological_order().unwrap();
        let pos = |s: StageId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(StageId(0)) < pos(StageId(1)));
        assert!(pos(StageId(0)) < pos(StageId(2)));
        assert!(pos(StageId(1)) < pos(StageId(3)));
        assert!(pos(StageId(2)) < pos(StageId(3)));
    }

    #[test]
    fn cycle_detection() {
        let a = Adjacency::from_edges(3, &[(s(0), s(1)), (s(1), s(2)), (s(2), s(0))]).unwrap();
        match a.topological_order() {
            Err(DagError::CycleDetected { .. }) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &[(s(1), s(1))]),
            Err(DagError::SelfLoop { stage: StageId(1) })
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &[(s(0), s(1)), (s(0), s(1))]),
            Err(DagError::DuplicateEdge {
                from: StageId(0),
                to: StageId(1)
            })
        );
    }

    #[test]
    fn unknown_stage_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &[(s(0), s(5))]),
            Err(DagError::UnknownStage { stage: StageId(5) })
        );
    }

    #[test]
    fn reachability_and_closure() {
        let a = diamond();
        assert!(a.reachable(StageId(0), StageId(3)));
        assert!(!a.reachable(StageId(1), StageId(2)));
        assert!(a.reachable(StageId(2), StageId(2)));
        assert_eq!(a.descendants(StageId(0)), vec![StageId(1), StageId(2), StageId(3)]);
        assert_eq!(a.ancestors(StageId(3)), vec![StageId(0), StageId(1), StageId(2)]);
        assert!(a.descendants(StageId(3)).is_empty());
        assert!(a.ancestors(StageId(0)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let a = Adjacency::from_edges(0, &[]).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.num_edges(), 0);
        assert!(a.topological_order().unwrap().is_empty());
    }
}
