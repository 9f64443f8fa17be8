//! Machine descriptions: hierarchical NUMA topologies with per-link-class
//! timing.
//!
//! The paper's Butterfly Plus has exactly two latencies — local and
//! through-the-switch — which [`crate::TimingConfig`] captures as a flat
//! local/remote split. Modern NUMA machines are sockets × dies × cores
//! with a full distance matrix, and at p ≥ 64 the flat split stops being a
//! model at all. A [`Topology`] generalizes the description: every ordered
//! `(from, to)` node pair is assigned a small *distance class*, and each
//! class carries its own word/atomic latencies and memory-module service
//! time ([`LinkTiming`]). Asymmetric links (a ≠ cost of the reverse
//! direction) are expressible because the class matrix is indexed by
//! ordered pair. Block transfers and interprocessor interrupts are
//! machine-wide figures ([`crate::BLOCK_WORD_NS`], [`crate::IPI_NS`]), as
//! on the paper's machine: no distance class scales them.
//!
//! Three constructors cover the design space:
//!
//! * [`Topology::flat`] — the paper's machine: class 0 for `from == to`,
//!   class 1 otherwise, timings lifted verbatim from a [`TimingConfig`].
//!   This is the default everywhere (asserted by a unit test and the
//!   kernel's equivalence suites).
//! * [`Topology::hier2`] — a 2-socket × N-die hierarchy with four classes:
//!   self, same-die, same-socket-cross-die (1.5× remote), and
//!   cross-socket (2× remote).
//! * [`Topology::from_matrix`] — an explicit class matrix for measured
//!   machines, asymmetric links included.

use crate::config::TimingConfig;

/// Latencies of one distance class, in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkTiming {
    /// One 32-bit read across this link.
    pub read_ns: u64,
    /// One 32-bit write across this link.
    pub write_ns: u64,
    /// One atomic read-modify-write across this link.
    pub atomic_ns: u64,
    /// Memory-module occupancy per access arriving over this link.
    pub service_ns: u64,
}

impl LinkTiming {
    /// The local-access timings of `t` (class 0 of every built-in).
    pub(crate) fn local(t: &TimingConfig) -> Self {
        Self {
            read_ns: t.local_read_ns,
            write_ns: t.local_write_ns,
            atomic_ns: t.local_atomic_ns,
            service_ns: t.module_service_local_ns,
        }
    }

    /// The remote-access timings of `t`, scaled by `num/den` (integer
    /// arithmetic, so scaled topologies stay deterministic).
    pub(crate) fn remote_scaled(t: &TimingConfig, num: u64, den: u64) -> Self {
        let s = |ns: u64| ns * num / den;
        Self {
            read_ns: s(t.remote_read_ns),
            write_ns: s(t.remote_write_ns),
            atomic_ns: s(t.remote_atomic_ns),
            service_ns: s(t.module_service_remote_ns),
        }
    }
}

/// A machine description: node count, a distance-class matrix over ordered
/// node pairs, and per-class timings.
///
/// Every word latency and module service time the simulator charges
/// routes through this type; see the module docs for the constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    /// `class[from * nodes + to]`, an index into `classes`.
    class: Box<[u8]>,
    classes: Vec<LinkTiming>,
    /// Short name for reports ("flat", "hier2", "matrix").
    name: &'static str,
}

impl Topology {
    /// The paper's flat Butterfly: class 0 on-node, class 1 through the
    /// switch, timings lifted verbatim from `t`.
    pub(crate) fn flat(nodes: usize, t: &TimingConfig) -> Self {
        Self::build(
            nodes,
            "flat",
            vec![LinkTiming::local(t), LinkTiming::remote_scaled(t, 1, 1)],
            |from, to| u8::from(from != to),
        )
    }

    /// A 2-socket machine, each socket split into `dies_per_socket` dies
    /// of equal size. Four classes: self (local timings), same-die
    /// (remote timings), same-socket-cross-die (1.5× remote), and
    /// cross-socket (2× remote).
    ///
    /// Nodes are numbered socket-major: node `i` is on socket
    /// `i / (nodes/2)`. `nodes` is rounded handling: the split only needs
    /// `nodes >= 2`; uneven tails land in the last die.
    pub fn hier2(nodes: usize, dies_per_socket: usize, t: &TimingConfig) -> Self {
        let per_socket = nodes.div_ceil(2).max(1);
        let per_die = per_socket.div_ceil(dies_per_socket.max(1)).max(1);
        let classes = vec![
            LinkTiming::local(t),
            LinkTiming::remote_scaled(t, 1, 1),
            LinkTiming::remote_scaled(t, 3, 2),
            LinkTiming::remote_scaled(t, 2, 1),
        ];
        Self::build(nodes, "hier2", classes, |from, to| {
            if from == to {
                0
            } else if from / per_socket != to / per_socket {
                3
            } else if from / per_die != to / per_die {
                2
            } else {
                1
            }
        })
    }

    /// An explicit machine description: `class[from * nodes + to]` indexes
    /// `classes`. Asymmetric links are allowed (the matrix is over ordered
    /// pairs).
    ///
    /// Returns an error string when the matrix shape or a class index is
    /// wrong.
    pub fn from_matrix(
        nodes: usize,
        class: Vec<u8>,
        classes: Vec<LinkTiming>,
    ) -> Result<Self, String> {
        if nodes == 0 {
            return Err("topology needs at least one node".to_string());
        }
        if class.len() != nodes * nodes {
            return Err(format!(
                "class matrix must be {nodes}x{nodes} = {} entries, got {}",
                nodes * nodes,
                class.len()
            ));
        }
        if classes.is_empty() {
            return Err("at least one link class required".to_string());
        }
        if let Some(&bad) = class.iter().find(|&&c| c as usize >= classes.len()) {
            return Err(format!(
                "class index {bad} out of range (have {} classes)",
                classes.len()
            ));
        }
        Ok(Self {
            nodes,
            class: class.into_boxed_slice(),
            classes,
            name: "matrix",
        })
    }

    /// Builds a named topology from a class function.
    fn build(
        nodes: usize,
        name: &'static str,
        classes: Vec<LinkTiming>,
        class_of: impl Fn(usize, usize) -> u8,
    ) -> Self {
        let mut class = vec![0u8; nodes * nodes];
        for from in 0..nodes {
            for to in 0..nodes {
                let c = class_of(from, to);
                debug_assert!((c as usize) < classes.len());
                class[from * nodes + to] = c;
            }
        }
        Self {
            nodes,
            class: class.into_boxed_slice(),
            classes,
            name,
        }
    }

    /// Looks up a built-in topology by CLI name: `"flat"` or `"hier2"`
    /// (two dies per socket; `"hier2x4"` for four).
    pub fn by_name(name: &str, nodes: usize, t: &TimingConfig) -> Option<Self> {
        match name {
            "flat" => Some(Self::flat(nodes, t)),
            "hier2" => Some(Self::hier2(nodes, 2, t)),
            "hier2x4" => Some(Self::hier2(nodes, 4, t)),
            _ => None,
        }
    }

    /// The node count this topology describes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The topology's short name ("flat", "hier2", "matrix").
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The distance class of the ordered pair `(from, to)`.
    #[inline]
    pub(crate) fn class_of(&self, from: usize, to: usize) -> u8 {
        self.class[from * self.nodes + to]
    }

    /// The link timings of the ordered pair `(from, to)`.
    #[inline]
    pub(crate) fn link(&self, from: usize, to: usize) -> &LinkTiming {
        &self.classes[self.class_of(from, to) as usize]
    }

    /// Memory-module occupancy on `to` for one access issued by `from`.
    #[inline]
    pub(crate) fn service_time(&self, from: usize, to: usize) -> u64 {
        self.link(from, to).service_ns
    }

    /// Checks internal consistency against a machine of `nodes` nodes, and
    /// that every class's latencies and service time fit the 32-bit
    /// fields an ATC entry carries them in.
    pub(crate) fn validate(&self, nodes: usize) -> Result<(), String> {
        if self.nodes != nodes {
            return Err(format!(
                "topology describes {} nodes but the machine has {nodes}",
                self.nodes
            ));
        }
        let fits = |c: &LinkTiming| {
            [c.read_ns, c.write_ns, c.atomic_ns, c.service_ns]
                .iter()
                .all(|&ns| u32::try_from(ns).is_ok())
        };
        match self.classes.iter().position(|c| !fits(c)) {
            Some(i) => Err(format!("link class {i}: a time exceeds u32::MAX ns")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat topology must reproduce `TimingConfig`'s latency table
    /// exactly — the kernel's bit-identical equivalence suites rest on
    /// this.
    #[test]
    fn flat_matches_timing_config_exactly() {
        let t = TimingConfig::default();
        let topo = Topology::flat(16, &t);
        for from in 0..16 {
            for to in 0..16 {
                let (read, write, atomic, service) = if from == to {
                    (
                        t.local_read_ns,
                        t.local_write_ns,
                        t.local_atomic_ns,
                        t.module_service_local_ns,
                    )
                } else {
                    (
                        t.remote_read_ns,
                        t.remote_write_ns,
                        t.remote_atomic_ns,
                        t.module_service_remote_ns,
                    )
                };
                assert_eq!(topo.link(from, to).read_ns, read);
                assert_eq!(topo.link(from, to).write_ns, write);
                assert_eq!(topo.link(from, to).atomic_ns, atomic);
                assert_eq!(topo.service_time(from, to), service, "({from},{to})");
            }
        }
        assert_eq!(topo.name(), "flat");
    }

    /// 2-hop (cross-socket) reads must cost more than 1-hop (same-die),
    /// with same-socket-cross-die in between.
    #[test]
    fn hier2_two_hop_costs_more_than_one_hop() {
        let t = TimingConfig::default();
        // 16 nodes, 2 sockets x 2 dies: dies are {0..3},{4..7},{8..11},{12..15}.
        let topo = Topology::hier2(16, 2, &t);
        let same_die = topo.link(0, 1).read_ns;
        let cross_die = topo.link(0, 4).read_ns;
        let cross_socket = topo.link(0, 8).read_ns;
        assert_eq!(same_die, t.remote_read_ns);
        assert!(cross_die > same_die, "{cross_die} vs {same_die}");
        assert!(cross_socket > cross_die, "{cross_socket} vs {cross_die}");
        assert_eq!(cross_socket, 2 * t.remote_read_ns);
        // Local access is unchanged by the hierarchy.
        assert_eq!(topo.link(5, 5).write_ns, t.local_write_ns);
    }

    #[test]
    fn matrix_constructor_validates_and_allows_asymmetry() {
        let t = TimingConfig::default();
        let l = LinkTiming::local(&t);
        let r = LinkTiming::remote_scaled(&t, 1, 1);
        let slow = LinkTiming::remote_scaled(&t, 4, 1);
        // 2 nodes: 0->1 fast remote, 1->0 slow remote (asymmetric link).
        let topo =
            Topology::from_matrix(2, vec![0, 1, 2, 0], vec![l, r, slow]).expect("valid matrix");
        assert!(topo.link(1, 0).read_ns > topo.link(0, 1).read_ns);
        assert_eq!(topo.name(), "matrix");
        assert!(topo.validate(2).is_ok());
        assert!(topo.validate(3).is_err());

        assert!(Topology::from_matrix(2, vec![0, 1, 1], vec![]).is_err());
        assert!(Topology::from_matrix(2, vec![0, 9, 0, 0], vec![LinkTiming::local(&t)]).is_err());
        assert!(Topology::from_matrix(0, vec![], vec![LinkTiming::local(&t)]).is_err());
    }

    /// A class whose latency or service does not fit the ATC entry's
    /// 32-bit charge fields makes the machine refuse to boot; a service
    /// past the contention slot's 40-bit load field used to corrupt the
    /// slot's generation bits in release builds.
    #[test]
    fn classes_that_overflow_the_entry_are_rejected() {
        use crate::{Machine, MachineConfig};
        let t = TimingConfig::default();
        let boot = |edit: fn(&mut LinkTiming)| {
            let mut far = LinkTiming::remote_scaled(&t, 1, 1);
            edit(&mut far);
            let topo = Topology::from_matrix(2, vec![0, 1, 1, 0], vec![LinkTiming::local(&t), far])
                .expect("well-formed matrix");
            Machine::new(MachineConfig {
                topology: Some(topo),
                ..MachineConfig::with_nodes(2)
            })
            .map(|_| ())
        };
        assert!(boot(|c| c.read_ns = u64::from(u32::MAX)).is_ok());
        for edit in [
            (|c| c.read_ns = 1 << 32) as fn(&mut LinkTiming),
            |c| c.write_ns = 1 << 32,
            |c| c.atomic_ns = u64::MAX,
            |c| c.service_ns = 1 << 41,
        ] {
            let e = boot(edit).expect_err("class must be refused");
            assert!(e.contains("link class 1"), "{e}");
        }
    }

    #[test]
    fn by_name_resolves_builtins() {
        let t = TimingConfig::default();
        assert_eq!(Topology::by_name("flat", 4, &t).unwrap().name(), "flat");
        assert_eq!(Topology::by_name("hier2", 8, &t).unwrap().name(), "hier2");
        assert!(Topology::by_name("torus", 4, &t).is_none());
    }

    #[test]
    fn hier2_covers_uneven_node_counts() {
        let t = TimingConfig::default();
        for nodes in [1usize, 2, 3, 5, 7, 12, 100, 256] {
            let topo = Topology::hier2(nodes, 2, &t);
            assert_eq!(topo.nodes(), nodes);
            for from in 0..nodes {
                assert_eq!(topo.class_of(from, from), 0);
            }
        }
    }
}
