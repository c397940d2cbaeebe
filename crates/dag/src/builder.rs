//! Validated construction of job DAGs.

use crate::error::DagError;
use crate::graph::Adjacency;
use crate::ids::StageId;
use crate::job::{check_stages, span, JobDag};
use crate::task::Task;

/// Builder for [`JobDag`] that assigns dense stage ids and validates the
/// result (non-empty stages, acyclic precedence) at [`JobDagBuilder::build`].
///
/// Stages are appended straight into the job's flat arrays (see
/// [`JobDag`]), so building a job allocates a fixed handful of blocks plus
/// their growth, whatever its stage count.  Stages can be referenced
/// either by the [`StageId`] returned from [`JobDagBuilder::add_stage`] or
/// by name via [`JobDagBuilder::edge_by_name`].  Names need not be unique:
/// a name refers to the last stage added under it.
#[derive(Debug, Clone)]
pub struct JobDagBuilder {
    name: String,
    tasks: Vec<Task>,
    stage_ends: Vec<u32>,
    stage_names: String,
    name_ends: Vec<u32>,
    edges: Vec<(StageId, StageId)>,
    /// The first stage whose task or name end did not fit a `u32`:
    /// [`JobDagBuilder::build`] reports it rather than truncate.
    overflow: Option<DagError>,
}

impl JobDagBuilder {
    /// Starts a new builder for a job with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        JobDagBuilder {
            name: name.into(),
            tasks: Vec::new(),
            stage_ends: Vec::new(),
            stage_names: String::new(),
            name_ends: Vec::new(),
            edges: Vec::new(),
            overflow: None,
        }
    }

    /// Reserves room for `stages` more stages holding `tasks` more tasks
    /// and `name_bytes` more bytes of stage names between them, so a
    /// generator that knows its job's size ahead does not regrow the task
    /// array, the name arena and the end arrays stage by stage.
    pub fn reserve(&mut self, stages: usize, tasks: usize, name_bytes: usize) {
        self.tasks.reserve(tasks);
        self.stage_ends.reserve(stages);
        self.stage_names.reserve(name_bytes);
        self.name_ends.reserve(stages);
    }

    /// Adds a stage and returns its id.  The name is copied into the job's
    /// name arena and the tasks appended to its task array.
    pub fn add_stage(
        &mut self,
        name: impl AsRef<str>,
        tasks: impl IntoIterator<Item = Task>,
    ) -> StageId {
        let stage = StageId(self.stage_ends.len() as u32);
        self.tasks.extend(tasks);
        self.stage_names.push_str(name.as_ref());
        let end = u32::try_from(self.tasks.len());
        let name_end = u32::try_from(self.stage_names.len());
        if self.overflow.is_none() {
            if end.is_err() {
                self.overflow = Some(DagError::TooManyTasks {
                    stage,
                    tasks: self.tasks.len(),
                });
            } else if name_end.is_err() {
                self.overflow = Some(DagError::InvalidStageName { stage });
            }
        }
        self.stage_ends.push(end.unwrap_or(u32::MAX));
        self.name_ends.push(name_end.unwrap_or(u32::MAX));
        stage
    }

    /// Adds a stage in fluent style, discarding the id (look it up by name
    /// later if needed).
    pub fn stage(mut self, name: impl AsRef<str>, tasks: impl IntoIterator<Item = Task>) -> Self {
        self.add_stage(name, tasks);
        self
    }

    /// Convenience: add a stage of `n` identical tasks of `duration` seconds.
    pub fn uniform_stage(self, name: impl AsRef<str>, n: usize, duration: f64) -> Self {
        self.stage(name, std::iter::repeat_n(Task::new(duration), n))
    }

    /// Records a precedence edge `from -> to` by stage id.
    ///
    /// Endpoint validation happens immediately for self-loops and at
    /// [`JobDagBuilder::build`] for everything else.
    pub fn edge(mut self, from: StageId, to: StageId) -> Result<Self, DagError> {
        if from == to {
            return Err(DagError::SelfLoop { stage: from });
        }
        self.edges.push((from, to));
        Ok(self)
    }

    /// Records precedence edges `from -> to` by stage id, in order: the
    /// same as one [`JobDagBuilder::edge`] call per edge, but the edge list
    /// grows once for an iterator that knows its length.
    pub fn edges(
        mut self,
        edges: impl IntoIterator<Item = (StageId, StageId)>,
    ) -> Result<Self, DagError> {
        let start = self.edges.len();
        self.edges.extend(edges);
        match self.edges[start..].iter().find(|(from, to)| from == to) {
            Some(&(stage, _)) => Err(DagError::SelfLoop { stage }),
            None => Ok(self),
        }
    }

    /// Records a precedence edge between two previously added stages by
    /// name.  A name shared by several stages means the last one added (see
    /// [`JobDagBuilder::stage_id`]).
    pub fn edge_by_name(self, from: &str, to: &str) -> Result<Self, DagError> {
        let id = |name: &str| {
            self.stage_id(name)
                .ok_or_else(|| DagError::UnknownStageName {
                    name: name.to_string(),
                })
        };
        let (f, t) = (id(from)?, id(to)?);
        self.edge(f, t)
    }

    /// Looks up a stage id by name.  If several stages share the name, the
    /// last one added wins.  A linear scan from the back: names are only
    /// looked up while wiring hand-written DAGs, so generators pay nothing
    /// for them.
    pub fn stage_id(&self, name: &str) -> Option<StageId> {
        (0..self.name_ends.len())
            .rev()
            .find(|&i| {
                span(&self.name_ends, i).and_then(|r| self.stage_names.get(r)) == Some(name)
            })
            .map(|i| StageId(i as u32))
    }

    /// Number of stages added so far.
    pub fn num_stages(&self) -> usize {
        self.stage_ends.len()
    }

    /// Finalises the job, validating all invariants.  The flat arrays are
    /// trimmed to their length: a job stays resident until it completes,
    /// so its growth slack would outlive the build.
    pub fn build(mut self) -> Result<JobDag, DagError> {
        if let Some(overflow) = self.overflow {
            return Err(overflow);
        }
        check_stages(&self.tasks, &self.stage_ends, &self.stage_names, &self.name_ends)?;
        self.tasks.shrink_to_fit();
        self.stage_ends.shrink_to_fit();
        self.stage_names.shrink_to_fit();
        self.name_ends.shrink_to_fit();
        let adjacency = Adjacency::from_edges(self.stage_ends.len(), &self.edges)?;
        // Cycle check.
        adjacency.topological_order()?;
        let job = JobDag::from_parts(
            self.name,
            self.tasks,
            self.stage_ends,
            self.stage_names,
            self.name_ends,
            adjacency,
        );
        debug_assert!(job.validate().is_ok());
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_diamond() {
        let job = JobDagBuilder::new("diamond")
            .uniform_stage("a", 4, 1.0)
            .uniform_stage("b", 2, 2.0)
            .uniform_stage("c", 2, 2.0)
            .uniform_stage("d", 1, 5.0)
            .edge_by_name("a", "b")
            .unwrap()
            .edge_by_name("a", "c")
            .unwrap()
            .edge_by_name("b", "d")
            .unwrap()
            .edge_by_name("c", "d")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(job.num_stages(), 4);
        assert_eq!(job.adjacency.num_edges(), 4);
        assert_eq!(job.source_stages(), vec![StageId(0)]);
        assert_eq!(job.sink_stages(), vec![StageId(3)]);
    }

    #[test]
    fn rejects_empty_job() {
        assert_eq!(JobDagBuilder::new("e").build().unwrap_err(), DagError::EmptyJob);
    }

    #[test]
    fn rejects_empty_stage() {
        let err = JobDagBuilder::new("e")
            .stage("a", vec![])
            .build()
            .unwrap_err();
        assert_eq!(err, DagError::EmptyStage { stage: StageId(0) });
    }

    #[test]
    fn rejects_invalid_task_durations() {
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            let err = JobDagBuilder::new("bad")
                .uniform_stage("a", 2, 1.0)
                .stage("b", vec![Task::new(1.0), Task { duration: bad }])
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                DagError::InvalidTaskDuration { stage: StageId(1), task: 1 },
                "duration {bad}"
            );
        }
    }

    #[test]
    fn rejects_cycle() {
        let err = JobDagBuilder::new("cyc")
            .uniform_stage("a", 1, 1.0)
            .uniform_stage("b", 1, 1.0)
            .edge(StageId(0), StageId(1))
            .unwrap()
            .edge(StageId(1), StageId(0))
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, DagError::CycleDetected { .. }));
    }

    #[test]
    fn rejects_unknown_name() {
        let err = JobDagBuilder::new("x")
            .uniform_stage("a", 1, 1.0)
            .edge_by_name("a", "nope")
            .unwrap_err();
        assert_eq!(
            err,
            DagError::UnknownStageName { name: "nope".to_string() }
        );
    }

    #[test]
    fn rejects_unknown_stage_id_at_build() {
        let err = JobDagBuilder::new("x")
            .uniform_stage("a", 1, 1.0)
            .edge(StageId(0), StageId(3))
            .unwrap()
            .build()
            .unwrap_err();
        assert_eq!(err, DagError::UnknownStage { stage: StageId(3) });
    }

    #[test]
    fn rejects_self_loop_immediately() {
        let err = JobDagBuilder::new("x")
            .uniform_stage("a", 1, 1.0)
            .edge(StageId(0), StageId(0))
            .unwrap_err();
        assert_eq!(err, DagError::SelfLoop { stage: StageId(0) });
    }

    #[test]
    fn add_stage_returns_sequential_ids() {
        let mut b = JobDagBuilder::new("seq");
        let a = b.add_stage("a", vec![Task::new(1.0)]);
        let c = b.add_stage("c", vec![Task::new(1.0)]);
        assert_eq!(a, StageId(0));
        assert_eq!(c, StageId(1));
        assert_eq!(b.stage_id("c"), Some(StageId(1)));
        assert_eq!(b.stage_id("missing"), None);
        assert_eq!(b.num_stages(), 2);
    }

    #[test]
    fn duplicate_names_resolve_to_the_last_stage_added() {
        let mut b = JobDagBuilder::new("dup");
        let first = b.add_stage("x", vec![Task::new(1.0)]);
        let y = b.add_stage("y", vec![Task::new(1.0)]);
        let second = b.add_stage("x", vec![Task::new(2.0)]);
        assert_ne!(first, second);
        assert_eq!(b.stage_id("x"), Some(second));
        let job = b.edge_by_name("y", "x").unwrap().build().unwrap();
        assert_eq!(job.adjacency.parents(second), &[y]);
        assert!(job.adjacency.parents(first).is_empty());
    }
}
