//! Workload inputs, generated from the run's seed alone.

use std::collections::BTreeSet;

use debruijn_core::{ChurnPlan, ChurnStep, FaultEvent, Ffc};

/// A churn trace of `arrivals` arrivals: Poisson arrivals, 25% bursts of
/// four, 20% link faults, each fault repaired 2–6 time units later.
#[must_use]
pub fn churn_trace(ffc: &Ffc, seed: u64, arrivals: usize) -> Vec<ChurnStep> {
    ChurnPlan::new(seed).arrivals(arrivals).generate(ffc)
}

/// The cumulative fault state a trace prefix leaves, kept independently
/// of the engine with the same set semantics: a node or link is down
/// after its last down event until its next up event.
#[derive(Clone, Debug, Default)]
pub struct FaultModel {
    nodes: BTreeSet<usize>,
    links: BTreeSet<(usize, usize)>,
}

impl FaultModel {
    /// Applies one event.
    pub fn apply(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::NodeDown(v) => {
                self.nodes.insert(v);
            }
            FaultEvent::NodeUp(v) => {
                self.nodes.remove(&v);
            }
            FaultEvent::EdgeDown(u, w) => {
                self.links.insert((u, w));
            }
            FaultEvent::EdgeUp(u, w) => {
                self.links.remove(&(u, w));
            }
        }
    }

    /// The nodes an embedding must avoid: failed processors plus the
    /// source of every failed link, sorted and without duplicates.
    #[must_use]
    pub fn excluded(&self) -> Vec<usize> {
        let mut all: BTreeSet<usize> = self.nodes.clone();
        all.extend(self.links.iter().map(|&(u, _)| u));
        all.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(steps: &[ChurnStep]) -> Vec<(u64, FaultEvent)> {
        steps
            .iter()
            .flat_map(|s| s.batch.iter().map(move |&e| (s.time.to_bits(), e)))
            .collect()
    }

    #[test]
    fn traces_are_a_pure_function_of_the_seed() {
        let ffc = Ffc::new(2, 10);
        let a = churn_trace(&ffc, 42, 200);
        assert_eq!(events(&a), events(&churn_trace(&ffc, 42, 200)));
        assert_ne!(events(&a), events(&churn_trace(&ffc, 43, 200)));
    }

    #[test]
    fn fault_model_has_set_semantics_and_excludes_link_sources() {
        let mut m = FaultModel::default();
        for ev in [
            FaultEvent::NodeDown(5),
            FaultEvent::NodeDown(5),
            FaultEvent::EdgeDown(3, 6),
            FaultEvent::NodeDown(9),
            FaultEvent::NodeUp(5),
        ] {
            m.apply(ev);
        }
        assert_eq!(m.excluded(), vec![3, 9]);
        m.apply(FaultEvent::EdgeUp(3, 6));
        assert_eq!(m.excluded(), vec![9]);
    }
}
