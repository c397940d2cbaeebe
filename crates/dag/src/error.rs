//! Error type for DAG construction and validation.

use crate::ids::StageId;
use std::fmt;

/// Errors raised while building or validating a [`crate::JobDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The job contains no stages at all.
    EmptyJob,
    /// A stage has zero tasks.
    EmptyStage {
        /// The offending stage.
        stage: StageId,
    },
    /// The job holds more tasks than its `u32` stage ends (and the
    /// runtime's `u32` task counts) can index.
    TooManyTasks {
        /// The first stage whose end does not fit.
        stage: StageId,
        /// The job's task count up to and including that stage.
        tasks: usize,
    },
    /// A stage's end in [`crate::JobDag::stage_ends`] lies below the
    /// previous stage's end.
    StageEndsDecrease {
        /// The offending stage.
        stage: StageId,
    },
    /// The last stage end is not the length of [`crate::JobDag::tasks`].
    TaskCountMismatch {
        /// Where the last stage ends.
        last_end: usize,
        /// How many tasks the job holds.
        tasks: usize,
    },
    /// A stage's name bounds do not fit the name arena: its end in
    /// [`crate::JobDag::name_ends`] is missing, lies past the arena or
    /// below the previous end, falls off a `char` boundary or overflows a
    /// `u32` — or the arena bounds a stage that does not exist.
    InvalidStageName {
        /// The offending stage.
        stage: StageId,
    },
    /// A task's duration is NaN, infinite or negative.  [`crate::Task::new`]
    /// rejects such a duration, but [`crate::Task`]'s fields are public, so
    /// a task built or edited without it can carry one.
    InvalidTaskDuration {
        /// The stage holding the task.
        stage: StageId,
        /// The task's index within the stage.
        task: usize,
    },
    /// An edge references a stage id that does not exist in the job.
    UnknownStage {
        /// The id that was referenced but never defined.
        stage: StageId,
    },
    /// An edge references a stage name that does not exist in the job.
    UnknownStageName {
        /// The name that was referenced but never defined.
        name: String,
    },
    /// An edge from a stage to itself.
    SelfLoop {
        /// The stage with the self edge.
        stage: StageId,
    },
    /// The same edge was added twice.
    DuplicateEdge {
        /// Edge source.
        from: StageId,
        /// Edge destination.
        to: StageId,
    },
    /// The precedence edges contain a cycle, so the graph is not a DAG.
    CycleDetected {
        /// A stage known to participate in (or be downstream of) the cycle.
        stage: StageId,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::EmptyJob => write!(f, "job has no stages"),
            DagError::EmptyStage { stage } => write!(f, "{stage} has no tasks"),
            DagError::TooManyTasks { stage, tasks } => {
                write!(f, "the job holds {tasks} tasks by the end of {stage}, more than {}", u32::MAX)
            }
            DagError::StageEndsDecrease { stage } => {
                write!(f, "the tasks of {stage} end before they start")
            }
            DagError::TaskCountMismatch { last_end, tasks } => {
                write!(f, "the last stage ends at task {last_end}, but the job holds {tasks} tasks")
            }
            DagError::InvalidStageName { stage } => {
                write!(f, "the name bounds of {stage} do not fit the stage-name arena")
            }
            DagError::InvalidTaskDuration { stage, task } => {
                write!(f, "task {task} of {stage} has a non-finite or negative duration")
            }
            DagError::UnknownStage { stage } => {
                write!(f, "edge references unknown {stage}")
            }
            DagError::UnknownStageName { name } => {
                write!(f, "edge references unknown stage name {name:?}")
            }
            DagError::SelfLoop { stage } => write!(f, "self-loop on {stage}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            DagError::CycleDetected { stage } => {
                write!(f, "precedence constraints contain a cycle involving {stage}")
            }
        }
    }
}

impl std::error::Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            DagError::EmptyJob.to_string(),
            DagError::EmptyStage { stage: StageId(3) }.to_string(),
            DagError::TooManyTasks { stage: StageId(3), tasks: 1 << 33 }.to_string(),
            DagError::StageEndsDecrease { stage: StageId(2) }.to_string(),
            DagError::TaskCountMismatch { last_end: 9, tasks: 6 }.to_string(),
            DagError::InvalidStageName { stage: StageId(1) }.to_string(),
            DagError::InvalidTaskDuration { stage: StageId(3), task: 4 }.to_string(),
            DagError::UnknownStage { stage: StageId(9) }.to_string(),
            DagError::UnknownStageName { name: "x".into() }.to_string(),
            DagError::SelfLoop { stage: StageId(1) }.to_string(),
            DagError::DuplicateEdge { from: StageId(0), to: StageId(1) }.to_string(),
            DagError::CycleDetected { stage: StageId(2) }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(DagError::EmptyStage { stage: StageId(3) }
            .to_string()
            .contains("stage3"));
        let bad_task = DagError::InvalidTaskDuration { stage: StageId(3), task: 4 }.to_string();
        assert!(bad_task.contains("task 4") && bad_task.contains("stage3"), "{bad_task}");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(DagError::EmptyJob);
        assert_eq!(e.to_string(), "job has no stages");
    }
}
