//! The shard wire protocol: a length-checked binary frame over the engine
//! codec ([`hummer_engine::codec`]).
//!
//! JSON cannot carry the bit-identity contract — NaN payloads and `-0.0`
//! do not round-trip through decimal text — so shard requests and
//! responses reuse the engine's binary value codec, which writes floats as
//! raw `f64::to_bits`. A request carries the full integrated table (corpus
//! statistics must be global; see [`crate::exec`]), the job spec, the
//! shard batch, and (since frame v2) the caller's trace context; a
//! response carries one [`ShardPartial`] per shard, in request order, plus
//! the worker's recorded span subtree so the coordinator can stitch a
//! single cross-node trace.
//!
//! Version negotiation is fail-fast: a v2 peer reading a v3 frame (or the
//! reverse) answers the typed [`ShardError::VersionMismatch`] instead of
//! hanging or mis-decoding — the version byte sits at a fixed offset right
//! after the magic, before anything layout-dependent.

use crate::error::{Result, ShardError};
use crate::exec::{run_shards_local, ClusterPartial, JobSpec, ShardPartial};
use crate::plan::Shard;
use hummer_dupdetect::DuplicatePair;
use hummer_engine::codec::{
    read_table, read_value, write_table, write_value, ByteReader, ByteWriter,
};
use hummer_engine::{EngineError, Table};
use hummer_fusion::{CellLineage, FunctionRegistry, ResolutionSpec, SampleConflict};
use hummer_obs::{Span, SpanRecord, Tracer};
use hummer_par::Parallelism;
use std::borrow::Cow;

/// Frame magic: `HmSh`.
pub const SHARD_WIRE_MAGIC: u32 = u32::from_be_bytes(*b"HmSh");
/// Protocol version; bumped on any layout change. v2 added the trace
/// context to requests and the span subtree to responses; v3 dropped the
/// request's execution-layout byte (responses are otherwise unchanged).
pub const SHARD_WIRE_VERSION: u8 = 3;

/// Span-ring capacity of the per-request capture tracer a worker records
/// remote-context stage spans into. A batch emits ~3 spans per shard plus
/// one root, so this never evicts at realistic fan-outs.
const WORKER_CAPTURE_CAPACITY: usize = 256;

fn wire(e: EngineError) -> ShardError {
    ShardError::Wire(e.to_string())
}

fn put_header(w: &mut ByteWriter) {
    w.put_u32(SHARD_WIRE_MAGIC);
    w.put_u8(SHARD_WIRE_VERSION);
}

fn get_header(r: &mut ByteReader) -> Result<()> {
    let magic = r.get_u32("shard frame magic").map_err(wire)?;
    if magic != SHARD_WIRE_MAGIC {
        return Err(ShardError::Wire(format!(
            "bad shard frame magic {magic:#010x}"
        )));
    }
    let version = r.get_u8("shard frame version").map_err(wire)?;
    if version != SHARD_WIRE_VERSION {
        return Err(ShardError::VersionMismatch {
            got: version,
            expected: SHARD_WIRE_VERSION,
        });
    }
    Ok(())
}

fn put_usize(w: &mut ByteWriter, n: usize) {
    w.put_u32(n as u32);
}

fn get_index(r: &mut ByteReader, bound: usize, what: &str) -> Result<usize> {
    let i = r.get_u32(what).map_err(wire)? as usize;
    if i >= bound {
        return Err(ShardError::Wire(format!(
            "{what} {i} out of range (< {bound})"
        )));
    }
    Ok(i)
}

fn put_strings(w: &mut ByteWriter, items: &[String]) {
    put_usize(w, items.len());
    for s in items {
        w.put_str(s);
    }
}

fn get_strings(r: &mut ByteReader, what: &str) -> Result<Vec<String>> {
    let n = r.get_count(4, what).map_err(wire)?;
    (0..n).map(|_| r.get_str(what).map_err(wire)).collect()
}

fn put_pairs(w: &mut ByteWriter, pairs: &[DuplicatePair]) {
    put_usize(w, pairs.len());
    for p in pairs {
        put_usize(w, p.left);
        put_usize(w, p.right);
        w.put_u64(p.similarity.to_bits());
    }
}

fn get_pairs(r: &mut ByteReader, rows: usize, what: &str) -> Result<Vec<DuplicatePair>> {
    let n = r.get_count(20, what).map_err(wire)?;
    (0..n)
        .map(|_| {
            let left = get_index(r, rows, "pair left row")?;
            let right = get_index(r, rows, "pair right row")?;
            let similarity = f64::from_bits(r.get_u64("pair similarity").map_err(wire)?);
            Ok(DuplicatePair {
                left,
                right,
                similarity,
            })
        })
        .collect()
}

/// Encode a shard-execution request: the integrated table, the job spec,
/// the shard batch this worker is responsible for, and the caller's trace
/// context. `trace` is `(trace_id, parent_span_id)`; `None` (an untraced
/// coordinator) is wired as a pair of zeros — real ids start at 1.
pub fn encode_request(
    table: &Table,
    spec: &JobSpec,
    shards: &[Shard],
    trace: Option<(u64, u64)>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w);
    let (trace_id, parent_span) = trace.unwrap_or((0, 0));
    w.put_u64(trace_id);
    w.put_u64(parent_span);
    write_table(&mut w, table);
    put_strings(&mut w, &spec.attributes);
    w.put_u64(spec.threshold.to_bits());
    w.put_u64(spec.unsure_threshold.to_bits());
    w.put_u8(u8::from(spec.use_filter));
    put_usize(&mut w, spec.resolutions.len());
    for (col, rspec) in &spec.resolutions {
        w.put_str(col);
        w.put_str(&rspec.function);
        put_strings(&mut w, &rspec.args);
    }
    put_usize(&mut w, shards.len());
    for shard in shards {
        put_usize(&mut w, shard.rows.len());
        for &row in &shard.rows {
            put_usize(&mut w, row);
        }
        put_usize(&mut w, shard.candidates.len());
        for &(a, b) in &shard.candidates {
            put_usize(&mut w, a);
            put_usize(&mut w, b);
        }
    }
    w.into_bytes()
}

/// A decoded shard-execution request: the shipped table, the job spec,
/// the shard list, and the caller's trace context (`trace_id`,
/// `parent_span_id`), `None` when the caller is untraced.
pub type DecodedRequest = (Table, JobSpec, Vec<Shard>, Option<(u64, u64)>);

/// Decode a shard-execution request; validates every row index against the
/// shipped table.
pub fn decode_request(bytes: &[u8]) -> Result<DecodedRequest> {
    let mut r = ByteReader::new(bytes);
    get_header(&mut r)?;
    let trace_id = r.get_u64("trace ctx trace id").map_err(wire)?;
    let parent_span = r.get_u64("trace ctx parent span").map_err(wire)?;
    let trace = (trace_id != 0).then_some((trace_id, parent_span));
    let table = read_table(&mut r).map_err(wire)?;
    let rows = table.len();
    let attributes = get_strings(&mut r, "job attributes")?;
    let threshold = f64::from_bits(r.get_u64("threshold").map_err(wire)?);
    let unsure_threshold = f64::from_bits(r.get_u64("unsure threshold").map_err(wire)?);
    let use_filter = r.get_u8("use_filter").map_err(wire)? != 0;
    let n_res = r.get_count(6, "resolutions").map_err(wire)?;
    let mut resolutions = Vec::with_capacity(n_res);
    for _ in 0..n_res {
        let col = r.get_str("resolution column").map_err(wire)?.to_string();
        let function = r.get_str("resolution function").map_err(wire)?.to_string();
        let args = get_strings(&mut r, "resolution args")?;
        resolutions.push((col, ResolutionSpec { function, args }));
    }
    let spec = JobSpec {
        attributes,
        threshold,
        unsure_threshold,
        use_filter,
        resolutions,
    };
    let n_shards = r.get_count(8, "shards").map_err(wire)?;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let n_rows = r.get_count(4, "shard rows").map_err(wire)?;
        let rows_vec: Vec<usize> = (0..n_rows)
            .map(|_| get_index(&mut r, rows, "shard row"))
            .collect::<Result<_>>()?;
        let n_cand = r.get_count(8, "shard candidates").map_err(wire)?;
        let candidates: Vec<(usize, usize)> = (0..n_cand)
            .map(|_| {
                Ok((
                    get_index(&mut r, rows, "candidate left")?,
                    get_index(&mut r, rows, "candidate right")?,
                ))
            })
            .collect::<Result<_>>()?;
        shards.push(Shard {
            rows: rows_vec,
            candidates,
        });
    }
    r.expect_end("shard request").map_err(wire)?;
    Ok((table, spec, shards, trace))
}

fn put_span_records(w: &mut ByteWriter, spans: &[SpanRecord]) {
    put_usize(w, spans.len());
    for s in spans {
        w.put_u64(s.trace);
        w.put_u64(s.id);
        w.put_u8(u8::from(s.parent.is_some()));
        w.put_u64(s.parent.unwrap_or(0));
        w.put_str(&s.name);
        w.put_u64(s.start_us);
        w.put_u64(s.duration_us);
        w.put_u8(u8::from(s.node.is_some()));
        w.put_str(s.node.as_deref().unwrap_or(""));
        put_usize(w, s.counters.len());
        for (name, value) in &s.counters {
            w.put_str(name);
            w.put_u64(*value);
        }
    }
}

fn get_span_records(r: &mut ByteReader) -> Result<Vec<SpanRecord>> {
    let n = r.get_count(40, "response spans").map_err(wire)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let trace = r.get_u64("span trace").map_err(wire)?;
        let id = r.get_u64("span id").map_err(wire)?;
        let has_parent = r.get_u8("span parent flag").map_err(wire)? != 0;
        let parent_raw = r.get_u64("span parent").map_err(wire)?;
        let name = r.get_str("span name").map_err(wire)?.to_string();
        let start_us = r.get_u64("span start").map_err(wire)?;
        let duration_us = r.get_u64("span duration").map_err(wire)?;
        let has_node = r.get_u8("span node flag").map_err(wire)? != 0;
        let node = r.get_str("span node").map_err(wire)?.to_string();
        let n_counters = r.get_count(9, "span counters").map_err(wire)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let cname = r.get_str("counter name").map_err(wire)?.to_string();
            let value = r.get_u64("counter value").map_err(wire)?;
            counters.push((Cow::Owned(cname), value));
        }
        spans.push(SpanRecord {
            trace,
            id,
            parent: has_parent.then_some(parent_raw),
            name: Cow::Owned(name),
            start_us,
            duration_us,
            counters,
            node: has_node.then_some(node),
        });
    }
    Ok(spans)
}

fn put_cell(w: &mut ByteWriter, cell: &CellLineage) {
    put_usize(w, cell.row_indices.len());
    for &i in &cell.row_indices {
        put_usize(w, i);
    }
    put_strings(w, &cell.sources);
    w.put_u8(u8::from(cell.had_conflict));
}

fn get_cell(r: &mut ByteReader) -> Result<CellLineage> {
    let n = r.get_count(4, "lineage rows").map_err(wire)?;
    let row_indices = (0..n)
        .map(|_| r.get_u32("lineage row").map_err(wire).map(|v| v as usize))
        .collect::<Result<_>>()?;
    let sources = get_strings(r, "lineage sources")?;
    let had_conflict = r.get_u8("lineage conflict flag").map_err(wire)? != 0;
    Ok(CellLineage {
        row_indices,
        sources,
        had_conflict,
    })
}

fn put_sample(w: &mut ByteWriter, s: &SampleConflict) {
    put_usize(w, s.cluster);
    w.put_str(&s.column);
    put_strings(w, &s.values);
    w.put_str(&s.resolved);
}

fn get_sample(r: &mut ByteReader) -> Result<SampleConflict> {
    let cluster = r.get_u32("sample cluster").map_err(wire)? as usize;
    let column = r.get_str("sample column").map_err(wire)?.to_string();
    let values = get_strings(r, "sample values")?;
    let resolved = r.get_str("sample resolved").map_err(wire)?.to_string();
    Ok(SampleConflict {
        cluster,
        column,
        values,
        resolved,
    })
}

/// Encode a shard-execution response: one partial per requested shard, in
/// request order, followed by the worker's span subtree (empty when the
/// request carried no trace context).
pub fn encode_response(partials: &[ShardPartial], spans: &[SpanRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w);
    put_span_records(&mut w, spans);
    put_usize(&mut w, partials.len());
    for p in partials {
        w.put_u64(p.candidates as u64);
        w.put_u64(p.filtered_out as u64);
        w.put_u64(p.compared as u64);
        w.put_u64(p.memo_hits as u64);
        w.put_u64(p.conflict_count as u64);
        put_pairs(&mut w, &p.pairs);
        put_pairs(&mut w, &p.unsure);
        put_usize(&mut w, p.clusters.len());
        for c in &p.clusters {
            put_usize(&mut w, c.min_member);
            put_usize(&mut w, c.values.len());
            for v in &c.values {
                write_value(&mut w, v);
            }
            put_usize(&mut w, c.cells.len());
            for cell in &c.cells {
                put_cell(&mut w, cell);
            }
            put_usize(&mut w, c.samples.len());
            for s in &c.samples {
                put_sample(&mut w, s);
            }
        }
    }
    w.into_bytes()
}

/// Decode a shard-execution response. `rows` is the integrated table's row
/// count (bounds every global row index in the frame). The second element
/// is the worker's span subtree for trace stitching.
pub fn decode_response(bytes: &[u8], rows: usize) -> Result<(Vec<ShardPartial>, Vec<SpanRecord>)> {
    let mut r = ByteReader::new(bytes);
    get_header(&mut r)?;
    let spans = get_span_records(&mut r)?;
    let n = r.get_count(40, "partials").map_err(wire)?;
    let mut partials = Vec::with_capacity(n);
    for _ in 0..n {
        let candidates = r.get_u64("candidates").map_err(wire)? as usize;
        let filtered_out = r.get_u64("filtered_out").map_err(wire)? as usize;
        let compared = r.get_u64("compared").map_err(wire)? as usize;
        let memo_hits = r.get_u64("memo_hits").map_err(wire)? as usize;
        let conflict_count = r.get_u64("conflict_count").map_err(wire)? as usize;
        let pairs = get_pairs(&mut r, rows, "accepted pairs")?;
        let unsure = get_pairs(&mut r, rows, "unsure pairs")?;
        let n_clusters = r.get_count(12, "clusters").map_err(wire)?;
        let mut clusters = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            let min_member = get_index(&mut r, rows, "cluster min member")?;
            let n_values = r.get_count(1, "cluster values").map_err(wire)?;
            let values = (0..n_values)
                .map(|_| read_value(&mut r).map_err(wire))
                .collect::<Result<_>>()?;
            let n_cells = r.get_count(6, "cluster cells").map_err(wire)?;
            let cells = (0..n_cells)
                .map(|_| get_cell(&mut r))
                .collect::<Result<_>>()?;
            let n_samples = r.get_count(12, "cluster samples").map_err(wire)?;
            let samples = (0..n_samples)
                .map(|_| get_sample(&mut r))
                .collect::<Result<_>>()?;
            clusters.push(ClusterPartial {
                min_member,
                values,
                cells,
                samples,
            });
        }
        partials.push(ShardPartial {
            candidates,
            pairs,
            unsure,
            filtered_out,
            compared,
            memo_hits,
            conflict_count,
            clusters,
        });
    }
    r.expect_end("shard response").map_err(wire)?;
    Ok((partials, spans))
}

/// Worker-side entry point: decode a request frame, execute its shard
/// batch locally, and encode the response frame. The serving layer mounts
/// this behind `POST /shard/execute`.
///
/// When the request carries a remote trace context, the batch runs under a
/// private capture tracer that adopts the caller's `(trace, parent)` ids,
/// and the recorded span subtree ships back in the response for the
/// coordinator to splice. Otherwise the batch records into `parent` (the
/// worker's own local trace, a no-op when its tracer is disabled) and the
/// response's span block is empty.
pub fn handle_shard_request(
    body: &[u8],
    registry: &FunctionRegistry,
    par: Parallelism,
    parent: &Span,
) -> Result<Vec<u8>> {
    let (table, spec, shards, trace) = decode_request(body)?;
    if let Some((trace_id, parent_span)) = trace {
        let capture = Tracer::with_capacity(WORKER_CAPTURE_CAPACITY);
        let partials = {
            let root = capture.adopt_remote(trace_id, parent_span, "worker_batch");
            run_shards_local(&table, &spec, &shards, registry, par, &root)?
        };
        let spans = capture.drain();
        Ok(encode_response(&partials, &spans))
    } else {
        let partials = run_shards_local(&table, &spec, &shards, registry, par, parent)?;
        Ok(encode_response(&partials, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{table, Value};

    fn spec() -> JobSpec {
        JobSpec {
            attributes: vec!["Name".into(), "City".into()],
            threshold: 0.77,
            unsure_threshold: 0.6,
            use_filter: true,
            resolutions: vec![(
                "City".into(),
                ResolutionSpec::with_args("vote", vec!["tie".into()]),
            )],
        }
    }

    #[test]
    fn request_roundtrip() {
        let t = table! {
            "Integrated" => ["Name", "City"];
            ["ann", "berlin"],
            ["ann", "berlin"],
            ["bob", "hamburg"],
        };
        let shards = vec![
            Shard {
                rows: vec![0, 1],
                candidates: vec![(0, 1)],
            },
            Shard {
                rows: vec![2],
                candidates: vec![],
            },
        ];
        let bytes = encode_request(&t, &spec(), &shards, Some((0xdead, 7)));
        let (t2, spec2, shards2, trace) = decode_request(&bytes).unwrap();
        assert_eq!(t2.rows(), t.rows());
        assert_eq!(t2.schema().names(), t.schema().names());
        assert_eq!(spec2, spec());
        assert_eq!(shards2, shards);
        assert_eq!(trace, Some((0xdead, 7)));

        let bytes = encode_request(&t, &spec(), &shards, None);
        let (_, _, _, trace) = decode_request(&bytes).unwrap();
        assert_eq!(trace, None);
    }

    #[test]
    fn response_roundtrip_preserves_float_bits() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234); // NaN payload
        let partial = ShardPartial {
            candidates: 3,
            pairs: vec![DuplicatePair {
                left: 0,
                right: 1,
                similarity: 0.91,
            }],
            unsure: vec![],
            filtered_out: 1,
            compared: 2,
            memo_hits: 5,
            conflict_count: 1,
            clusters: vec![ClusterPartial {
                min_member: 0,
                values: vec![Value::text("ann"), Value::Float(weird), Value::Float(-0.0)],
                cells: vec![CellLineage {
                    row_indices: vec![0, 1],
                    sources: vec!["A".into(), "B".into()],
                    had_conflict: true,
                }],
                samples: vec![SampleConflict {
                    cluster: 0,
                    column: "City".into(),
                    values: vec!["berlin".into(), "Berlin".into()],
                    resolved: "berlin".into(),
                }],
            }],
        };
        let bytes = encode_response(std::slice::from_ref(&partial), &[]);
        let (decoded, spans) = decode_response(&bytes, 2).unwrap();
        assert!(spans.is_empty());
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].memo_hits, 5);
        assert_eq!(decoded[0].pairs, partial.pairs);
        let vals = &decoded[0].clusters[0].values;
        match (&vals[1], &vals[2]) {
            (Value::Float(a), Value::Float(b)) => {
                assert_eq!(a.to_bits(), weird.to_bits());
                assert_eq!(b.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("float values did not round-trip: {other:?}"),
        }
    }

    #[test]
    fn span_subtree_roundtrips() {
        let spans = vec![
            SpanRecord {
                trace: 0xfeed,
                id: 9,
                parent: None,
                name: Cow::Borrowed("worker_batch"),
                start_us: 0,
                duration_us: 1234,
                counters: vec![(Cow::Borrowed("shards"), 2)],
                node: None,
            },
            SpanRecord {
                trace: 0xfeed,
                id: 10,
                parent: Some(9),
                name: Cow::Owned("score".to_string()),
                start_us: 17,
                duration_us: 900,
                counters: vec![(Cow::Borrowed("pairs"), 5), (Cow::Borrowed("compared"), 40)],
                node: Some("w1:9000".to_string()),
            },
        ];
        let bytes = encode_response(&[], &spans);
        let (partials, decoded) = decode_response(&bytes, 0).unwrap();
        assert!(partials.is_empty());
        assert_eq!(decoded, spans);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_response(&[], &[]);
        bytes[0] ^= 0xff;
        assert!(decode_response(&bytes, 0).is_err());
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = encode_response(&[], &[]);
        bytes[4] = 2; // version byte sits right after the 4-byte magic
        match decode_response(&bytes, 0) {
            Err(ShardError::VersionMismatch { got: 2, expected }) => {
                assert_eq!(expected, SHARD_WIRE_VERSION);
            }
            other => panic!("expected typed version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_row_rejected() {
        let t = table! {
            "Integrated" => ["Name"];
            ["ann"],
        };
        let shards = vec![Shard {
            rows: vec![0, 7],
            candidates: vec![],
        }];
        let bytes = encode_request(&t, &spec(), &shards, None);
        assert!(decode_request(&bytes).is_err());
    }
}
