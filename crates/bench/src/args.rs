//! The one flag grammar of `repro` (no external dependencies):
//! `--flag`, `--key value` / `--key=value`, comma lists, `--topology`.
//!
//! A read consumes the tokens it matched and [`Args`] remembers every
//! name asked for, so the dispatcher can reject whatever is left over —
//! a typo, a repeated flag, a stray word — and print the set the
//! experiment actually accepts, derived from its reads.

use std::fmt::Debug;
use std::ops::RangeBounds;

use numa_machine::{TimingConfig, Topology};

/// The arguments after the experiment's name that no read has consumed
/// yet, and every name read so far.
#[derive(Clone, Debug, Default)]
pub(crate) struct Args {
    rest: Vec<String>,
    read: Vec<&'static str>,
}

impl Args {
    pub(crate) fn new(rest: Vec<String>) -> Self {
        let read = Vec::new();
        Self { rest, read }
    }

    fn note(&mut self, name: &'static str) {
        if !self.read.contains(&name) {
            self.read.push(name);
        }
    }

    /// Whether a bare flag like `--quick` is present.
    pub(crate) fn flag(&mut self, name: &'static str) -> bool {
        self.note(name);
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// The value of `--key value` or `--key=value`, parsed.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is missing (the next
    /// token is absent or is itself a `--flag`) or fails to parse.
    pub(crate) fn get<T: std::str::FromStr>(&mut self, name: &'static str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        self.note(name);
        let prefix = format!("{name}=");
        let is_key = |a: &String| a == name || a.starts_with(&prefix);
        let at = self.rest.iter().position(is_key)?;
        let key = self.rest.remove(at);
        let v = match key.strip_prefix(&prefix) {
            Some(v) => v.to_string(),
            // The next token, now at `at` — unless it is itself a flag.
            None if self.rest.get(at).is_some_and(|v| !v.starts_with("--")) => self.rest.remove(at),
            None => panic!("{name} needs a value"),
        };
        Some(
            v.parse()
                .unwrap_or_else(|e| panic!("bad value for {name}: {v}: {e}")),
        )
    }

    /// Like [`Args::get`] with a default.
    pub(crate) fn get_or<T: std::str::FromStr>(&mut self, name: &'static str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.get(name).unwrap_or(default)
    }

    /// A count such as `--procs 8`, checked against `range` at the read,
    /// so an out-of-range machine size stops before anything boots.
    ///
    /// # Panics
    ///
    /// Panics with a usage message naming the flag when the value lies
    /// outside `range` (or, as [`Args::get`], is missing or unparsable).
    pub(crate) fn count(
        &mut self,
        name: &'static str,
        range: impl RangeBounds<usize> + Debug,
    ) -> Option<usize> {
        let n = self.get(name)?;
        assert!(range.contains(&n), "{name} must be in {range:?} (got {n})");
        Some(n)
    }

    /// A comma-separated list such as `--procs 16,64`, each item parsed;
    /// `None` when the flag is absent.
    pub(crate) fn list<T: std::str::FromStr>(&mut self, name: &'static str) -> Option<Vec<T>>
    where
        T::Err: std::fmt::Display,
    {
        let list: String = self.get(name)?;
        Some(
            list.split(',')
                .map(str::trim)
                .filter(|item| !item.is_empty())
                .map(|item| {
                    item.parse()
                        .unwrap_or_else(|e| panic!("bad value for {name}: {item}: {e}"))
                })
                .collect(),
        )
    }

    /// The first token no read consumed, if any.
    pub(crate) fn leftover(&self) -> Option<&str> {
        self.rest.first().map(String::as_str)
    }

    /// Every name read so far: the flags this invocation accepts.
    pub(crate) fn accepted(&self) -> &[&'static str] {
        &self.read
    }
}

/// `--topology NAME` → the machine description for `nodes` nodes.
///
/// # Panics
///
/// Panics with a usage message on an unknown name.
pub(crate) fn topology(name: &str, nodes: usize) -> Topology {
    Topology::by_name(name, nodes, &TimingConfig::default())
        .unwrap_or_else(|| panic!("unknown --topology {name:?} (expected flat, hier2, hier2x4)"))
}

/// One machine per processor count of a `--procs` sweep.
///
/// # Panics
///
/// Panics with a usage message on a count below 2.
pub(crate) fn machines(topology_name: &str, ps: &[usize]) -> Vec<Topology> {
    let machine = |&p: &usize| {
        assert!(p >= 2, "--procs entries must be at least 2 (got {p})");
        topology(topology_name, p)
    };
    ps.iter().map(machine).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::new(raw.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values() {
        let mut a = args(&["--full", "--n", "400", "--t1=5", "--procs", "16, 64"]);
        assert!(a.flag("--full"));
        assert!(!a.flag("--quick"));
        assert_eq!(a.get::<usize>("--n"), Some(400));
        assert_eq!(a.get::<u64>("--t1"), Some(5));
        assert_eq!(a.get_or::<usize>("--m", 7), 7);
        assert_eq!(a.list::<usize>("--procs"), Some(vec![16, 64]));
        assert_eq!(a.list::<usize>("--sizes"), None);
        assert_eq!(a.leftover(), None);
        assert_eq!(
            a.accepted(),
            ["--full", "--quick", "--n", "--t1", "--m", "--procs", "--sizes"]
        );
    }

    #[test]
    #[should_panic(expected = "--procs must be in 1..=2 (got 4)")]
    fn a_count_outside_its_range_panics() {
        let mut a = args(&["--nodes", "2", "--procs", "4"]);
        assert_eq!(a.count("--nodes", 1..), Some(2));
        assert_eq!(a.count("--max-procs", 1..), None);
        let _ = a.count("--procs", 1..=2);
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn bad_value_panics() {
        let _ = args(&["--n", "abc"]).get::<usize>("--n");
    }

    /// `fig1_gauss --json --quick` once wrote a file named `--quick`.
    #[test]
    #[should_panic(expected = "--out needs a value")]
    fn a_flag_is_not_a_value() {
        let _ = args(&["--out", "--quick"]).get::<String>("--out");
    }

    #[test]
    fn unread_tokens_are_left_over() {
        // The typo that once ran the default sweep and reported PASS.
        let mut a = args(&["--proc", "4"]);
        assert_eq!(a.list::<usize>("--procs"), None);
        assert_eq!(a.leftover(), Some("--proc"));
        // A repeated flag and a stray word are no better than a typo.
        let mut a = args(&["--n", "4", "--n", "5"]);
        assert_eq!(a.get::<usize>("--n"), Some(4));
        assert_eq!(a.leftover(), Some("--n"));
        let mut a = args(&["--quick", "fast"]);
        assert!(a.flag("--quick"));
        assert_eq!(a.leftover(), Some("fast"));
    }
}
