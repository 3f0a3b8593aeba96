//! Job-level view of a fault plan: compute slowdowns and failed nodes.
//!
//! The interconnect's [`FaultPlan`] carries faults for every layer; this
//! module extracts the parts `mpisim` consumes. [`JobFaults`] resolves
//! per-node compute slowdowns (CMG throttling) into per-rank clock
//! stretches, and guards job placement against hard-failed nodes — a rank
//! on a dead node would simply never finish, so [`crate::Job::with_faults`]
//! refuses the layout up front, mirroring what a real scheduler does by
//! draining the node.

use interconnect::faults::FaultPlan;
use interconnect::topology::NodeId;

/// The job-visible slice of a fault plan.
#[derive(Debug, Clone, Default)]
pub struct JobFaults {
    /// `(node, remaining-speed)` compute slowdowns; factors in `(0, 1]`.
    slowdowns: Vec<(NodeId, f64)>,
    /// Hard-failed nodes a job must not be placed on.
    failed: Vec<NodeId>,
}

impl JobFaults {
    /// No faults: every stretch is exactly 1.0 and placement is unrestricted.
    pub fn none() -> Self {
        Self::default()
    }

    /// Extract the job-visible faults from a full plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        Self {
            slowdowns: plan.slowdowns(),
            failed: plan.failed_nodes(),
        }
    }

    /// Clock stretch for compute on `node`: the product of `1/factor` over
    /// every slowdown attached to it (1.0 when healthy). A node at 0.5
    /// remaining speed runs compute chunks 2× longer.
    pub fn compute_stretch(&self, node: NodeId) -> f64 {
        self.slowdowns
            .iter()
            .filter(|(n, _)| *n == node)
            .fold(1.0, |acc, (_, factor)| acc / factor)
    }

    /// Whether the plan hard-failed `node`.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// True when the plan carries no job-visible fault at all.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty() && self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interconnect::faults::Fault;

    fn plan() -> FaultPlan {
        FaultPlan::new("t")
            .with(Fault::Slowdown {
                node: NodeId(5),
                factor: 0.5,
            })
            .with(Fault::Slowdown {
                node: NodeId(5),
                factor: 0.5,
            })
            .with(Fault::Failure { node: NodeId(9) })
    }

    #[test]
    fn stretch_compounds_and_defaults_to_one() {
        let jf = JobFaults::from_plan(&plan());
        assert_eq!(jf.compute_stretch(NodeId(5)), 4.0, "two 0.5 slowdowns");
        assert_eq!(jf.compute_stretch(NodeId(6)), 1.0);
        assert!(jf.is_failed(NodeId(9)));
        assert!(!jf.is_failed(NodeId(5)));
        assert!(!jf.is_empty());
        assert!(JobFaults::none().is_empty());
    }
}
