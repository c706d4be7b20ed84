//! Workflow platform errors.

use std::fmt;

/// Result alias for workflow operations.
pub(crate) type WorkflowResult<T> = Result<T, WorkflowError>;

/// Errors raised by graph construction, scheduling or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// A dependency references a task that does not exist (yet).
    UnknownTask(usize),
    /// A task cost is negative or not finite, which would let a task
    /// outrank its own dependency in HEFT's order.
    InvalidCost { task: String, cost_us: f64 },
    /// No workers were provided.
    NoWorkers,
    /// A task execution failed (real executor).
    TaskFailed { task: String, reason: String },
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::UnknownTask(id) => write!(f, "unknown task id {id}"),
            WorkflowError::InvalidCost { task, cost_us } => {
                write!(
                    f,
                    "task '{task}' has cost {cost_us} us: a cost must be finite and non-negative"
                )
            }
            WorkflowError::NoWorkers => write!(f, "worker pool is empty"),
            WorkflowError::TaskFailed { task, reason } => {
                write!(f, "task '{task}' failed: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(WorkflowError::UnknownTask(3).to_string(), "unknown task id 3");
        assert_eq!(WorkflowError::NoWorkers.to_string(), "worker pool is empty");
        assert_eq!(
            WorkflowError::InvalidCost { task: "t".into(), cost_us: -1.5 }.to_string(),
            "task 't' has cost -1.5 us: a cost must be finite and non-negative"
        );
        assert_eq!(
            WorkflowError::TaskFailed { task: "t".into(), reason: "boom".into() }.to_string(),
            "task 't' failed: boom"
        );
    }
}
