//! The `--check` gate of the exact-baseline binaries (`server_bench`,
//! `ptable_ablation`): compare a run's integers with a committed
//! artifact.
//!
//! Virtual-time results are exact functions of the configuration, so
//! the comparison is made on `u64`s parsed from the baseline's text —
//! never through `f64`, whose 53-bit mantissa would let a 64-bit
//! checksum drift by up to 2048 and still compare equal.

/// The raw text of `field`'s value in the section of `json` that starts
/// at `"id_key":"id"` and ends at the next `}` (artifact sections put
/// their scalar fields before any nested object). Hand-rolled to match
/// the hand-rolled writer; the format is ours.
fn baseline_field<'a>(json: &'a str, id_key: &str, id: &str, field: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{id_key}\":\"{id}\""))?;
    let section = &json[at..];
    let section = &section[..section.find('}').unwrap_or(section.len())];
    let label = format!("\"{field}\":");
    let tail = &section[section.find(&label)? + label.len()..];
    Some(&tail[..tail.find(',').unwrap_or(tail.len())])
}

/// Compares `fields` — `(name, this run's value)` — with the baseline
/// section identified by `"id_key":"id"`, printing one verdict line per
/// field. A value passes when it is within `tolerance` (a fraction of
/// the baseline value; `0.0` demands equality) of the baseline's. A
/// section or field the baseline lacks is a failure, not a skip: a gate
/// that silently compares nothing is not a gate.
pub fn check_section(
    baseline: &str,
    id_key: &str,
    id: &str,
    fields: &[(&str, u64)],
    tolerance: f64,
) -> bool {
    let mut ok = true;
    for &(field, cur) in fields {
        let (base, verdict) = match baseline_field(baseline, id_key, id, field).map(str::parse) {
            Some(Ok(base)) if cur.abs_diff(base) as f64 <= base as f64 * tolerance => {
                (base.to_string(), "ok")
            }
            Some(Ok(base)) => (base.to_string(), "MISMATCH"),
            Some(Err(_)) => (
                "?".to_string(),
                "MISMATCH (baseline value is not an integer)",
            ),
            None => ("-".to_string(), "MISSING from baseline"),
        };
        ok &= verdict == "ok";
        println!("check {id:<36} {field:<16} {cur:>20} vs baseline {base:>20}: {verdict}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use platinum_analysis::report::json::Value;

    #[test]
    fn baseline_parser_reads_own_artifact() {
        let json = r#"{"bench":"server_bench","workloads":[{"name":"kv","requests":1024,"elapsed_ns":55,"checksum":12345,"per_proc":[7,9],"protocol":{"faults":3}},{"name":"flow","requests":2048,"checksum":9}],"cells":[{"key":"kv/p16/home_node","elapsed_ns":9},{"key":"kv/p64/home_node","elapsed_ns":10,"walk_ns":4}]}"#;
        assert_eq!(baseline_field(json, "name", "kv", "requests"), Some("1024"));
        assert_eq!(
            baseline_field(json, "name", "kv", "checksum"),
            Some("12345")
        );
        assert_eq!(
            baseline_field(json, "name", "flow", "requests"),
            Some("2048")
        );
        assert_eq!(baseline_field(json, "name", "flow", "checksum"), Some("9"));
        assert_eq!(baseline_field(json, "name", "kv", "missing"), None);
        assert_eq!(baseline_field(json, "name", "neither", "requests"), None);
        // A field the next section has must not leak into this one.
        assert_eq!(
            baseline_field(json, "key", "kv/p16/home_node", "elapsed_ns"),
            Some("9")
        );
        assert_eq!(
            baseline_field(json, "key", "kv/p16/home_node", "walk_ns"),
            None
        );
    }

    #[test]
    fn checksums_one_apart_mismatch_at_tolerance_zero() {
        // Above 2^53: an f64 comparison cannot tell these two apart.
        let sum = 10_266_302_583_755_946_123u64;
        let artifact = Value::obj(vec![(
            "workloads",
            Value::Arr(vec![Value::obj(vec![
                ("name", Value::Str("kv".to_string())),
                ("checksum", Value::Int(sum)),
            ])]),
        )])
        .to_json();
        let check = |cur, tol| check_section(&artifact, "name", "kv", &[("checksum", cur)], tol);
        assert!(check(sum, 0.0));
        assert!(!check(sum + 1, 0.0));
        // A tolerance band still admits a near value.
        assert!(check(sum + 1, 1e-9));
    }

    #[test]
    fn missing_section_or_field_fails() {
        let artifact = r#"{"workloads":[{"name":"kv","requests":8}]}"#;
        let check = |id, field| check_section(artifact, "name", id, &[(field, 8)], 0.0);
        assert!(check("kv", "requests"));
        assert!(!check("flow", "requests"));
        assert!(!check("kv", "elapsed_ns"));
    }
}
