//! The closed-loop pipelined client: each connection keeps up to
//! [`DEPTH`] requests in flight and sends the next bodies only when
//! responses arrive, checking every response against the offline
//! estimates.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use twig_serve::http::{encode_request, read_response_pipelined, ClientResponse, Limits};
use twig_serve::Json;

use crate::inputs::{BATCH, DEPTH};
use crate::stats::percentile;
use crate::trace::Tracer;

/// The request set one workload cycles through.
#[derive(Debug)]
pub struct Traffic {
    /// Encoded `POST /estimate` requests, one per body.
    pub wires: Vec<Vec<u8>>,
    /// The offline estimates each body must get back, bit for bit.
    pub expected: Vec<Vec<f64>>,
}

impl Traffic {
    pub fn new(bodies: &[String], expected: Vec<Vec<f64>>) -> Traffic {
        let wires = bodies
            .iter()
            .map(|body| {
                let mut wire = Vec::with_capacity(body.len() + 96);
                encode_request(&mut wire, "POST", "/estimate", body.as_bytes());
                wire
            })
            .collect();
        Traffic { wires, expected }
    }
}

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After this many requests.
    After(usize),
}

/// What one phase of traffic did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Every completed request's send-to-response time, microseconds.
    pub samples: Vec<f64>,
    /// From the first request sent to the last response, on the
    /// connection that took longest.
    pub active: Duration,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.active = self.active.max(other.active);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// The phase as one slice; `None` when no request completed.
    pub fn slice(&self) -> Option<Slice> {
        if self.samples.is_empty() {
            return None;
        }
        let mut latencies = self.samples.clone();
        latencies.sort_by(f64::total_cmp);
        Some(Slice {
            estimates_per_s: (latencies.len() * BATCH) as f64 / self.active.as_secs_f64(),
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            requests: latencies.len(),
        })
    }
}

/// One client phase's figures: a slice of the measured window.
#[derive(Debug, Clone)]
pub struct Slice {
    pub estimates_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub requests: usize,
}

/// Checks one response: status 200, `count` = batch size, and every
/// estimate bit-identical to the offline one.
fn verify(response: &ClientResponse, expected: &[f64]) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.body_text()));
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| "body is not UTF-8")?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if json.get("count").and_then(Json::as_f64) != Some(BATCH as f64) {
        return Err(format!("count is not {BATCH}: {text}"));
    }
    let estimates = json.get("estimates").and_then(Json::as_array).ok_or("no estimates")?;
    if estimates.len() != expected.len() {
        return Err(format!("{} estimates, {} expected", estimates.len(), expected.len()));
    }
    for (i, (got, want)) in estimates.iter().zip(expected).enumerate() {
        match got.as_f64() {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => return Err(format!("estimate {i} is {got:?}, offline gives {want:?}")),
        }
    }
    Ok(())
}

/// One connection's closed loop, starting at body `*cursor` and leaving
/// `*cursor` at the next unsent body. Requests get ids from `rid_base`
/// on. Errors are failures to set the connection's thread up; failed
/// requests are counted in the outcome.
fn connection(
    addr: SocketAddr,
    traffic: &Traffic,
    cursor: &mut usize,
    stop: Stop,
    tracer: &mut Tracer,
    rid_base: u64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    crate::server::yield_to_server()?;
    let stream = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(s)
    });
    let mut stream = match stream {
        Ok(stream) => stream,
        Err(e) => {
            out.attempted = 1;
            out.fail(1, format!("connect: {e}"));
            return Ok(out);
        }
    };
    let limits = Limits::default();
    let mut buffer = Vec::new();
    let mut inflight: VecDeque<(usize, Instant, u64)> = VecDeque::with_capacity(DEPTH);
    let mut sent = 0usize;
    let wants_more = |sent: usize| match stop {
        Stop::At(at) => Instant::now() < at,
        Stop::After(n) => sent < n,
    };
    let mut window = Vec::new();
    let began = Instant::now();
    loop {
        // Top the pipeline up to DEPTH in one write, once every response
        // already received has been read. Refilling per burst rather than
        // per response keeps client and server in the same rhythm on a
        // shared CPU, where per-response writes let the scheduler
        // interleave them differently from run to run.
        if buffer.is_empty() {
            window.clear();
            let now = Instant::now();
            while inflight.len() < DEPTH && wants_more(sent) {
                let body = *cursor;
                window.extend_from_slice(&traffic.wires[body]);
                inflight.push_back((body, now, rid_base + sent as u64));
                *cursor = (body + 1) % traffic.wires.len();
                sent += 1;
            }
            if !window.is_empty() {
                if let Err(e) = stream.write_all(&window) {
                    out.fail(inflight.len() as u64, format!("write: {e}"));
                    break;
                }
            }
        }
        let Some((body, sent_at, rid)) = inflight.pop_front() else { break };
        let response = read_response_pipelined(&mut stream, &mut buffer, &limits);
        let received = Instant::now();
        match response {
            Ok(response) => {
                let checked = verify(&response, &traffic.expected[body]);
                let verified = Instant::now();
                let span = tracer.record("client.request", rid, sent_at, verified, None);
                tracer.record("client.verify", rid, received, verified, span);
                match checked {
                    Ok(()) => {
                        out.ok += 1;
                        out.samples.push((received - sent_at).as_secs_f64() * 1e6);
                    }
                    Err(why) => out.fail(1, why),
                }
            }
            Err(e) => {
                out.fail(1 + inflight.len() as u64, format!("read: {e:?}"));
                break;
            }
        }
    }
    out.attempted = sent as u64;
    out.active = began.elapsed();
    Ok(out)
}

/// Request ids each connection of one [`run`] may use.
const RIDS_PER_CONNECTION: u64 = 1 << 32;

/// Runs one connection per cursor, concurrently, until `stop`. When
/// `tracer` is on, each connection records a span per request into it.
pub fn run(
    addr: SocketAddr,
    traffic: &Traffic,
    cursors: &mut [usize],
    stop: Stop,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let on = tracer.is_on();
    let epoch = tracer.epoch();
    let rids = tracer.rids(cursors.len() as u64 * RIDS_PER_CONNECTION);
    let results: Vec<(Result<Outcome, String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(k, cursor)| {
                scope.spawn(move || {
                    let mut local = Tracer::new(on, epoch);
                    let rid_base = rids + k as u64 * RIDS_PER_CONNECTION;
                    let outcome = connection(addr, traffic, cursor, stop, &mut local, rid_base);
                    (outcome, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Outcome::default();
    for (outcome, local) in results {
        total.merge(outcome?);
        tracer.absorb(local);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_core::{estimate_summary, Algorithm, CountKind};
    use twig_serve::{Server, ServerConfig, SummaryRegistry, SummarySpec};
    use twig_tree::{DataTree, Twig};

    use crate::inputs::{bodies, corpus, distinct_twigs, HOT_STREAM};

    /// A small served summary, its twigs and their offline estimates.
    fn served() -> (Server, Vec<String>, Vec<Vec<f64>>, tempdir::Dir) {
        let dir = tempdir::Dir::new("client");
        let xml = corpus(3, 64 << 10);
        let path = dir.0.join("s.flt");
        let mut off = Tracer::new(false, Instant::now());
        let built = crate::build::build(&xml, &path, &mut off).expect("build");
        let tree = DataTree::from_xml(&xml).expect("parse");
        let twigs = distinct_twigs(&tree, 3, HOT_STREAM, 32).expect("twigs");
        let expected = twigs
            .chunks_exact(BATCH)
            .map(|batch| {
                batch
                    .iter()
                    .map(|t| {
                        let twig = Twig::parse(t).expect("twig");
                        estimate_summary(&built.cst, &twig, Algorithm::Msh, CountKind::Occurrence)
                    })
                    .collect()
            })
            .collect();
        let registry = SummaryRegistry::new();
        let spec = SummarySpec::parse(&format!("default={}", path.display())).expect("spec");
        registry.load(spec).expect("load");
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config, registry).expect("bind");
        (server, bodies(&twigs), expected, dir)
    }

    #[test]
    fn pipelined_loop_checks_every_estimate_bit_for_bit() {
        let (server, bodies, expected, _dir) = served();
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let mut off = Tracer::new(false, Instant::now());

        let good = Traffic::new(&bodies, expected.clone());
        let outcome =
            run(addr, &good, &mut [0], Stop::After(3 * bodies.len()), &mut off).expect("run");
        assert_eq!(
            (outcome.attempted, outcome.ok, outcome.failed),
            (12, 12, 0),
            "{:?}",
            outcome.errors
        );

        // One estimate off by one ulp in the second body: that body's
        // every response fails, the rest still pass.
        let mut wrong = expected;
        wrong[1][0] = f64::from_bits(wrong[1][0].to_bits() + 1);
        let outcome = run(addr, &Traffic::new(&bodies, wrong), &mut [0], Stop::After(8), &mut off)
            .expect("run");
        assert_eq!((outcome.ok, outcome.failed), (6, 2), "{:?}", outcome.errors);
        assert!(outcome.errors[0].contains("offline gives"));

        handle.shutdown();
        thread.join().expect("server thread").expect("server exits cleanly");
    }

    /// A scratch directory removed on drop.
    mod tempdir {
        pub struct Dir(pub std::path::PathBuf);

        impl Dir {
            pub fn new(tag: &str) -> Dir {
                let path =
                    std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
                std::fs::create_dir_all(&path).expect("temp dir");
                Dir(path)
            }
        }

        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }
}
