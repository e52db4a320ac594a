//! The seeded query mix both server workloads send: four classes that
//! load different parts of the query path.
//!
//! The repository records no query traffic to copy, so the classes get
//! equal shares: each class holds the same number of pool queries and a
//! draw is uniform over the pool. The shares are a choice, not observed
//! traffic; the traced runs report each class's measured count and share
//! of query time, so a change that moves one class can be read off the
//! end-to-end figures.

use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A one-day or one-week time window, which zone maps prune.
    Window,
    /// One node's faults, which shard and rack pruning narrow.
    Point,
    /// A whole-table aggregate.
    Scan,
    /// A predicate under `not`, which zone maps cannot prune.
    Unpruned,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Window, Class::Point, Class::Scan, Class::Unpruned];

    pub fn name(self) -> &'static str {
        match self {
            Class::Window => "window",
            Class::Point => "point",
            Class::Scan => "scan",
            Class::Unpruned => "unpruned",
        }
    }
}

/// Queries per class. A large pool keeps the mix's cost profile,
/// and so its latency tail, nearly the same from one seed to the next.
const PER_CLASS: usize = 240;

/// The campaign's first and last day with scan activity, rounded out:
/// windows are drawn inside this range.
const FIRST_DAY: u64 = 30;
const LAST_DAY: u64 = 420;

/// A fixed pool of distinct queries, generated from the seed and the
/// corpus's node names (`BB-SS`).
pub struct Mix {
    pub queries: Vec<(Class, String)>,
}

impl Mix {
    pub fn new(seed: u64, nodes: &[String]) -> Mix {
        assert!(!nodes.is_empty(), "the query mix needs node names");
        let mut rng = Rng::new(seed ^ 0x51_u64);
        let mut queries = Vec::new();
        let node = |rng: &mut Rng| nodes[rng.below(nodes.len() as u64) as usize].clone();
        for class in Class::ALL {
            for k in 0..PER_CLASS {
                let q = match class {
                    // One-day and one-week windows alternate: a choice
                    // that covers both zone-map granularities.
                    Class::Window => {
                        let len = if k % 4 < 2 { 1 } else { 7 };
                        let a = FIRST_DAY + rng.below(LAST_DAY - FIRST_DAY);
                        let pred = format!("time>={a}d and time<{}d", a + len);
                        if k % 2 == 0 {
                            format!("count where {pred}")
                        } else {
                            format!("group class where {pred}")
                        }
                    }
                    Class::Point => format!("list limit 100 where node={}", node(&mut rng)),
                    Class::Scan => {
                        ["group day", "top 10 node", "hist bits where multibit"][k % 3].to_string()
                    }
                    Class::Unpruned => match k % 4 {
                        0 => format!("count where not class={}", 1 + rng.below(5)),
                        1 => format!("group dir where not node={}", node(&mut rng)),
                        2 => format!("list limit 100 where not bits<={}", 1 + rng.below(3)),
                        _ => format!("hist bits where not node={}", node(&mut rng)),
                    },
                };
                queries.push((class, q));
            }
        }
        Mix { queries }
    }

    /// Index of the next query for a client stream: uniform over the
    /// pool, so each class gets an equal share.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        rng.below(self.queries.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix() {
        let nodes = vec!["01-01".to_string(), "02-04".to_string()];
        let a = Mix::new(7, &nodes);
        let b = Mix::new(7, &nodes);
        assert_eq!(a.queries, b.queries);
        let (mut ra, mut rb) = (Rng::new(3), Rng::new(3));
        for _ in 0..100 {
            assert_eq!(a.draw(&mut ra), b.draw(&mut rb));
        }
        for class in Class::ALL {
            let n = a.queries.iter().filter(|(c, _)| *c == class).count();
            assert_eq!(n, PER_CLASS, "every class holds an equal share");
        }
    }
}
