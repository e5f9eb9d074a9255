//! Plain-text (CSV) trace interchange.
//!
//! The paper's artifact exchanges invocation traces as flat files; this
//! module provides the equivalent here so synthesized traces can be
//! saved, diffed, and replayed across runs and tools. The format is one
//! `timestamp_micros,function_id` pair per line, with a
//! `# horizon_micros=N` header:
//!
//! ```text
//! # faasmem-trace v1 horizon_micros=60000000
//! 1000000,0
//! 2500000,1
//! ```

use std::error::Error;
use std::fmt;

use faasmem_sim::SimTime;

use crate::trace::{FunctionId, Invocation, InvocationTrace};

/// Errors produced when parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// The `# faasmem-trace v1 horizon_micros=N` header is missing or
    /// malformed.
    BadHeader,
    /// A data line is not `micros,function`.
    BadLine {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// An invocation timestamp exceeds the declared horizon.
    BeyondHorizon {
        /// 1-based line number of the offending line.
        line: usize,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadHeader => write!(f, "missing or malformed trace header"),
            ParseTraceError::BadLine { line } => write!(f, "malformed invocation at line {line}"),
            ParseTraceError::BeyondHorizon { line } => {
                write!(f, "invocation beyond declared horizon at line {line}")
            }
        }
    }
}

impl Error for ParseTraceError {}

/// Serializes a trace to the v1 text format.
///
/// # Examples
///
/// ```
/// use faasmem_workload::{trace_io, FunctionId, Invocation, InvocationTrace};
/// use faasmem_sim::SimTime;
///
/// let trace = InvocationTrace::from_invocations(
///     vec![Invocation { at: SimTime::from_secs(1), function: FunctionId(2) }],
///     SimTime::from_secs(10),
/// );
/// let text = trace_io::to_string(&trace);
/// let back = trace_io::from_str(&text).unwrap();
/// assert_eq!(trace, back);
/// ```
pub fn to_string(trace: &InvocationTrace) -> String {
    let mut out = String::with_capacity(trace.len() * 16 + 64);
    out.push_str(&format!(
        "# faasmem-trace v1 horizon_micros={}\n",
        trace.duration().as_micros()
    ));
    for inv in trace.iter() {
        out.push_str(&format!("{},{}\n", inv.at.as_micros(), inv.function.0));
    }
    out
}

/// Parses a trace from the v1 text format.
///
/// # Errors
///
/// Returns [`ParseTraceError`] when the header is missing, a line is
/// malformed, or a timestamp exceeds the declared horizon.
pub fn from_str(text: &str) -> Result<InvocationTrace, ParseTraceError> {
    parse_with(text, Err)
}

/// A leniently-parsed trace: malformed data lines were skipped, not
/// rejected, and the count of skipped lines is reported alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyTrace {
    /// The trace built from the lines that did parse.
    pub trace: InvocationTrace,
    /// How many data lines were malformed or beyond the horizon.
    pub skipped_lines: u64,
}

/// Parses a trace from the v1 text format, skipping malformed data lines
/// instead of failing on them.
///
/// A missing or malformed header is still a hard error — without the
/// declared horizon nothing in the file is interpretable. Lines that are
/// not `micros,function` or whose timestamp exceeds the horizon are
/// counted in [`LossyTrace::skipped_lines`] and otherwise ignored.
///
/// # Errors
///
/// Returns [`ParseTraceError::BadHeader`] only.
///
/// # Examples
///
/// ```
/// use faasmem_workload::trace_io;
///
/// let text = "# faasmem-trace v1 horizon_micros=1000\n5,0\njunk\n900,1\n";
/// let lossy = trace_io::from_str_lossy(text).unwrap();
/// assert_eq!(lossy.trace.len(), 2);
/// assert_eq!(lossy.skipped_lines, 1);
/// ```
pub fn from_str_lossy(text: &str) -> Result<LossyTrace, ParseTraceError> {
    let mut skipped_lines = 0u64;
    let trace = parse_with(text, |_| {
        skipped_lines += 1;
        Ok(())
    })?;
    Ok(LossyTrace {
        trace,
        skipped_lines,
    })
}

/// The shared parse loop. `on_bad_line` decides whether a per-line error
/// aborts the parse (strict) or is swallowed (lossy); header errors always
/// abort.
fn parse_with(
    text: &str,
    mut on_bad_line: impl FnMut(ParseTraceError) -> Result<(), ParseTraceError>,
) -> Result<InvocationTrace, ParseTraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseTraceError::BadHeader)?;
    let horizon_micros: u64 = header
        .strip_prefix("# faasmem-trace v1 horizon_micros=")
        .and_then(|v| v.trim().parse().ok())
        .ok_or(ParseTraceError::BadHeader)?;
    let horizon = SimTime::from_micros(horizon_micros);
    let mut invocations = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((at, function)) = line.split_once(',').and_then(|(a, f)| {
            Some((a.trim().parse::<u64>().ok()?, f.trim().parse::<u32>().ok()?))
        }) else {
            on_bad_line(ParseTraceError::BadLine { line: idx + 1 })?;
            continue;
        };
        if at > horizon_micros {
            on_bad_line(ParseTraceError::BeyondHorizon { line: idx + 1 })?;
            continue;
        }
        invocations.push(Invocation {
            at: SimTime::from_micros(at),
            function: FunctionId(function),
        });
    }
    Ok(InvocationTrace::from_invocations(invocations, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadClass, TraceSynthesizer};

    #[test]
    fn roundtrip_synthesized_trace() {
        let trace = TraceSynthesizer::new(3)
            .load_class(LoadClass::High)
            .duration(SimTime::from_mins(10))
            .synthesize_for(FunctionId(7));
        let text = to_string(&trace);
        let back = from_str(&text).expect("roundtrip");
        assert_eq!(trace, back);
    }

    #[test]
    fn roundtrip_synthesized_cluster_trace() {
        // Written from the generators' merge, read back as one held run.
        let (trace, _) = TraceSynthesizer::new(4)
            .duration(SimTime::from_mins(30))
            .synthesize_cluster(40);
        let text = to_string(&trace);
        let back = from_str(&text).expect("roundtrip");
        assert!(back.len() > 40);
        assert_eq!(trace, back);
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = InvocationTrace::empty(SimTime::from_secs(5));
        let back = from_str(&to_string(&trace)).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.duration(), SimTime::from_secs(5));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# faasmem-trace v1 horizon_micros=10000000\n\n# a comment\n100,1\n";
        let t = from_str(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next().unwrap().function, FunctionId(1));
    }

    #[test]
    fn missing_header_is_error() {
        assert_eq!(from_str("100,1\n"), Err(ParseTraceError::BadHeader));
        assert_eq!(from_str(""), Err(ParseTraceError::BadHeader));
    }

    #[test]
    fn malformed_line_is_error_with_location() {
        let text = "# faasmem-trace v1 horizon_micros=1000\nnot-a-line\n";
        assert_eq!(from_str(text), Err(ParseTraceError::BadLine { line: 2 }));
        let text = "# faasmem-trace v1 horizon_micros=1000\n5,\n";
        assert_eq!(from_str(text), Err(ParseTraceError::BadLine { line: 2 }));
    }

    #[test]
    fn beyond_horizon_is_error() {
        let text = "# faasmem-trace v1 horizon_micros=1000\n2000,0\n";
        assert_eq!(
            from_str(text),
            Err(ParseTraceError::BeyondHorizon { line: 2 })
        );
    }

    #[test]
    fn lossy_skips_and_counts_bad_lines() {
        let text = "# faasmem-trace v1 horizon_micros=1000\n\
                    5,0\nnot-a-line\n2000,1\n900,2\n";
        let lossy = from_str_lossy(text).expect("header is fine");
        assert_eq!(lossy.trace.len(), 2);
        assert_eq!(lossy.skipped_lines, 2);
        // The surviving invocations are exactly the parseable in-horizon ones.
        let funcs: Vec<u32> = lossy.trace.iter().map(|i| i.function.0).collect();
        assert_eq!(funcs, vec![0, 2]);
    }

    #[test]
    fn lossy_still_rejects_bad_header() {
        assert_eq!(from_str_lossy("100,1\n"), Err(ParseTraceError::BadHeader));
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let trace = TraceSynthesizer::new(9)
            .load_class(LoadClass::Middle)
            .duration(SimTime::from_mins(5))
            .synthesize_for(FunctionId(1));
        let text = to_string(&trace);
        let lossy = from_str_lossy(&text).unwrap();
        assert_eq!(lossy.skipped_lines, 0);
        assert_eq!(lossy.trace, from_str(&text).unwrap());
    }

    #[test]
    fn errors_display_meaningfully() {
        assert!(ParseTraceError::BadHeader.to_string().contains("header"));
        assert!(ParseTraceError::BadLine { line: 3 }
            .to_string()
            .contains('3'));
        assert!(ParseTraceError::BeyondHorizon { line: 4 }
            .to_string()
            .contains('4'));
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip_arbitrary(
            pairs in proptest::collection::vec((0u64..1_000_000, 0u32..50), 0..200),
        ) {
            let invs: Vec<Invocation> = pairs
                .iter()
                .map(|&(at, f)| Invocation {
                    at: SimTime::from_micros(at),
                    function: FunctionId(f),
                })
                .collect();
            let trace = InvocationTrace::from_invocations(invs, SimTime::from_micros(1_000_000));
            let back = from_str(&to_string(&trace)).unwrap();
            proptest::prop_assert_eq!(trace, back);
        }
    }
}
