//! Chrome `trace_event` JSON exporter.
//!
//! The output loads in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Mapping:
//!
//! * tracer **phase** → process (`pid`), named via `process_name`
//!   metadata — multi-case binaries get one group per case, so each
//!   case's virtual-time axis starts at its own zero;
//! * simulated **processor** → thread (`tid`), named `cpu<p>`;
//! * `FaultEnd` → a complete (`"ph":"X"`) slice spanning the fault's
//!   begin→end virtual time, named `fault:<resolution>`;
//! * every other kind → a thread-scoped instant (`"ph":"i"`).
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! precision kept in the fractional part.

use std::io::{self, Write};

use crate::event::EventKind;
use crate::json::escape;
use crate::tracer::Trace;

/// Renders `trace` as a Chrome trace_event JSON string.
pub fn chrome_trace_string(trace: &Trace) -> String {
    let mut out = Vec::new();
    write_chrome_trace(trace, &mut out).expect("infallible write to Vec");
    String::from_utf8(out).expect("exporter emits UTF-8")
}

/// Streams `trace` as Chrome trace_event JSON into `w`.
pub(crate) fn write_chrome_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |w: &mut W| -> io::Result<()> {
        if first {
            first = false;
            Ok(())
        } else {
            w.write_all(b",\n")
        }
    };

    // Name each phase's process group.
    let used_phases: Vec<u16> = {
        let mut v: Vec<u16> = trace.events.iter().map(|e| e.phase).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &phase in &used_phases {
        let name = trace
            .phases
            .get(phase as usize)
            .map(String::as_str)
            .unwrap_or("run");
        sep(w)?;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{phase},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        )?;
    }

    // Name each (phase, processor) track.
    let mut tracks: Vec<(u16, u16)> = trace.events.iter().map(|e| (e.phase, e.proc)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for &(phase, proc) in &tracks {
        sep(w)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{phase},\"tid\":{proc},\"args\":{{\"name\":\"cpu{proc}\"}}}}"
        )?;
    }

    for e in &trace.events {
        sep(w)?;
        match e.kind {
            EventKind::FaultEnd => {
                let begin = e.arg.min(e.vtime);
                let res = crate::FaultResolution::from_u8(e.code)
                    .map(|r| r.name())
                    .unwrap_or("unknown");
                write!(
                    w,
                    "{{\"name\":\"fault:{res}\",\"cat\":\"fault\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"page\":{},\"seq\":{}}}}}",
                    e.phase,
                    e.proc,
                    micros(begin),
                    micros(e.vtime - begin),
                    e.page,
                    e.seq
                )?;
            }
            kind => {
                write!(
                    w,
                    "{{\"name\":\"{}\",\"cat\":\"protocol\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{\"page\":{},\"arg\":{},\"code\":{},\"seq\":{}}}}}",
                    kind.name(),
                    e.phase,
                    e.proc,
                    micros(e.vtime),
                    e.page,
                    e.arg,
                    e.code,
                    e.seq
                )?;
            }
        }
    }
    w.write_all(b"]}\n")
}

/// Nanoseconds → microseconds with the ns kept as decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, EventKind, FaultResolution, Tracer};

    impl json::Value {
        /// The number as an `f64` (integers above 2^53 round).
        fn as_num(&self) -> Option<f64> {
            match self {
                json::Value::Num(n) => Some(*n),
                json::Value::Int(n) => Some(*n as f64),
                _ => None,
            }
        }
    }

    fn sample_trace() -> Trace {
        let t = Tracer::new();
        t.emit(0, 1_000, EventKind::FaultBegin, 1, 0x4000, 0);
        t.emit(0, 9_500, EventKind::Invalidate, 2, 7, 1);
        t.emit(0, 12_345, EventKind::Freeze, 0, 7, 5_000);
        t.emit(
            0,
            15_000,
            EventKind::FaultEnd,
            FaultResolution::RemoteMapped as u8,
            7,
            1_000,
        );
        t.begin_phase("with \"quotes\"");
        t.emit(1, 2_000, EventKind::Thaw, 0, 7, 0);
        t.snapshot()
    }

    #[test]
    fn exporter_emits_valid_json_with_expected_shape() {
        let s = chrome_trace_string(&sample_trace());
        let v = json::parse(&s).expect("exporter output must be strict JSON");
        assert_eq!(
            v.get("displayTimeUnit").and_then(|u| u.as_str()),
            Some("ns")
        );
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents must be an array");
        // 2 process_name + 2 thread_name metadata + 5 events
        assert_eq!(events.len(), 9);
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
            assert!(matches!(ph, "M" | "X" | "i"), "unexpected ph {ph}");
            assert!(e.get("pid").and_then(|p| p.as_num()).is_some());
            assert!(e.get("tid").and_then(|t| t.as_num()).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(|t| t.as_num()).is_some());
                assert!(e.get("args").is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(|d| d.as_num()).is_some());
            }
        }
        // The fault slice spans begin→end on processor 0's track.
        let fault = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one complete fault slice");
        assert_eq!(
            fault.get("name").and_then(|n| n.as_str()),
            Some("fault:remote_mapped")
        );
        assert_eq!(fault.get("ts").and_then(|t| t.as_num()), Some(1.0));
        assert_eq!(fault.get("dur").and_then(|d| d.as_num()), Some(14.0));
        assert_eq!(fault.get("tid").and_then(|t| t.as_num()), Some(0.0));
        // The thaw instant lives in the second phase's process group.
        let thaw = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("thaw"))
            .expect("thaw instant");
        assert_eq!(thaw.get("pid").and_then(|p| p.as_num()), Some(1.0));
        assert_eq!(thaw.get("tid").and_then(|t| t.as_num()), Some(1.0));
        // The quoted phase name survives escaping.
        let meta = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .find(|e| e.get("pid").and_then(|p| p.as_num()) == Some(1.0))
            .expect("phase 1 metadata");
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str()),
            Some("with \"quotes\"")
        );
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let t = Tracer::new();
        let s = chrome_trace_string(&t.snapshot());
        let v = json::parse(&s).expect("valid JSON");
        assert_eq!(v.get("traceEvents"), Some(&json::Value::Arr(vec![])));
    }
}
