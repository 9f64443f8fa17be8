//! The `--check` gate of the exact-baseline experiments (`server_bench`,
//! `ptable_ablation`): hold a run's artifact to a committed one.
//!
//! Virtual-time results are exact functions of the configuration, so
//! the comparison is equality of parsed JSON values — integers as
//! `u64`, never through `f64`, whose 53-bit mantissa would let a 64-bit
//! checksum drift by up to 2048 and still compare equal.

use platinum::trace::json::Value;

/// The part of an artifact that is exact: `artifact[sections]` is an
/// array of objects, each identified by the string under `id`, and in
/// each the values under `keys` are pure functions of the configuration.
pub(crate) struct Exact {
    pub(crate) sections: &'static str,
    pub(crate) id: &'static str,
    pub(crate) keys: &'static [&'static str],
}

/// `value[sections]` as `(id, section)` pairs.
fn sections<'v>(value: &'v Value, exact: &Exact) -> Vec<(&'v str, &'v Value)> {
    let list = value.get(exact.sections).and_then(Value::as_arr);
    list.unwrap_or_default()
        .iter()
        .filter_map(|s| Some((s.get(exact.id)?.as_str()?, s)))
        .collect()
}

/// For each section of `artifact`, for each exact key: the artifact's
/// value must equal the baseline's. Returns one verdict line per
/// comparison and whether all passed. A section or key the baseline
/// lacks is a failure, not a skip: a gate that silently compares nothing
/// is not a gate.
pub(crate) fn check_exact(
    artifact: &Value,
    baseline: &Value,
    exact: &Exact,
) -> (Vec<String>, bool) {
    let baseline = sections(baseline, exact);
    let mut lines = Vec::new();
    let mut ok = true;
    for (id, section) in sections(artifact, exact) {
        let base = baseline.iter().find(|(b, _)| *b == id).map(|(_, s)| *s);
        for &key in exact.keys {
            let (cur, base) = (section.get(key), base.and_then(|s| s.get(key)));
            let verdict = match (cur, base) {
                (Some(c), Some(b)) if c == b => "ok",
                (Some(_), Some(_)) => "MISMATCH",
                (_, None) => "MISSING from baseline",
                (None, Some(_)) => "MISSING from this run",
            };
            ok &= verdict == "ok";
            let show = |v: Option<&Value>| v.map_or("-".to_string(), Value::to_json);
            lines.push(format!(
                "check {id:<36} {key:<16} {:>20} vs baseline {:>20}: {verdict}",
                show(cur),
                show(base)
            ));
        }
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use platinum::trace::json;

    use super::*;

    const WORKLOADS: Exact = Exact {
        sections: "workloads",
        id: "name",
        keys: &["checksum"],
    };

    fn workload(name: &str, key: &str, v: u64) -> Value {
        Value::obj(vec![(
            "workloads",
            Value::Arr(vec![Value::obj(vec![
                ("name", Value::str(name)),
                (key, Value::Int(v)),
            ])]),
        )])
    }

    #[test]
    fn checksums_one_apart_mismatch() {
        // Above 2^53: an f64 comparison cannot tell these two apart.
        let sum = 10_266_302_583_755_946_123u64;
        let baseline = json::parse(&workload("kv", "checksum", sum).to_json()).unwrap();
        let check = |cur| check_exact(&workload("kv", "checksum", cur), &baseline, &WORKLOADS).1;
        assert!(check(sum));
        assert!(!check(sum + 1));
    }

    #[test]
    fn missing_section_or_field_fails() {
        let baseline = json::parse(r#"{"workloads":[{"name":"kv","requests":8}]}"#).unwrap();
        let check = |id, field: &'static str| {
            let exact = Exact {
                keys: vec![field].leak(),
                ..WORKLOADS
            };
            check_exact(&workload(id, field, 8), &baseline, &exact).1
        };
        assert!(check("kv", "requests"));
        assert!(!check("flow", "requests"));
        assert!(!check("kv", "elapsed_ns"));
    }
}
