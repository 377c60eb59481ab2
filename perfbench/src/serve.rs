//! The serving surface: an in-process `tsg-serve` daemon with default
//! options, driven over loopback by closed-loop clients that each send
//! their next request only after the previous answer arrived.

use crate::calib::{Calibrator, Timing};
use crate::workloads::{theta_of, Mix, Query, Workload, CLIENTS, MAX_EDGES_KEYS};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use taxogram_core::{Taxogram, TaxogramConfig};
use tsg_graph::GraphDatabase;
use tsg_serve::{ServeOptions, Server, ServerHandle};
use tsg_taxonomy::Taxonomy;

/// Length of one load window. Each window is bracketed by calibrations,
/// and its requests are scaled by the median bracket of the windows
/// within [`SMOOTH`] of it: the host's speed regimes last 5–30 s, so a
/// few seconds of brackets follow them while one stray calibration no
/// longer rescales a whole window of half-second requests.
const WINDOW: Duration = Duration::from_secs(1);

/// Windows on each side whose brackets smooth a window's calibration.
const SMOOTH: usize = 2;

/// Socket timeout: far above any request of these workloads.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A resident daemon on an ephemeral loopback port.
pub struct Daemon {
    handle: ServerHandle,
}

impl Daemon {
    /// Binds a default-options daemon over `db` and `taxonomy`.
    pub fn bind(db: GraphDatabase, taxonomy: Taxonomy) -> Result<Daemon, String> {
        let handle = Server::bind("127.0.0.1:0", db, taxonomy, ServeOptions::default())
            .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        Ok(Daemon { handle })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr())
    }

    /// Drains and stops the daemon, joining its threads.
    pub fn shutdown(self) -> Result<(), String> {
        let report = self.handle.shutdown();
        if report.clean {
            Ok(())
        } else {
            Err(format!("daemon drained uncleanly: {report:?}"))
        }
    }
}

/// One client connection speaking JSON lines.
pub struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::with_capacity(1 << 16, s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            addr,
            writer: s,
            reader,
            line: String::new(),
        })
    }

    /// Sends one frame (ending in `\n`) and reads one response line.
    pub fn call(&mut self, frame: &str) -> std::io::Result<&str> {
        self.writer.write_all(frame.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Replaces a broken connection.
    fn reconnect(&mut self) -> Result<(), String> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// The daemon's `stats` counters: `(cache hits, cache misses, shed)`.
    pub fn stats(&mut self) -> Result<(u64, u64, u64), String> {
        let line = self
            .call("{\"op\":\"stats\"}\n")
            .map_err(|e| e.to_string())?;
        let v = tsg_serve::json::parse(line).map_err(|e| e.to_string())?;
        let get = |k: &str| {
            v.get(k)
                .and_then(tsg_serve::json::Json::as_u64)
                .ok_or_else(|| format!("stats response lacks {k}: {line}"))
        };
        Ok((get("cache_hits")?, get("cache_misses")?, get("shed")?))
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A byte-correct answer filtered from the cache.
    Hit,
    /// A byte-correct answer that mined.
    Miss,
    /// Refused admission.
    Shed,
    /// A typed error response.
    Error,
    /// No answer: the connection failed or closed.
    Lost,
    /// An answer whose patterns differ from a fresh mine's.
    Mismatch,
}

impl Outcome {
    /// Whether the request returned byte-correct output.
    pub fn ok(self) -> bool {
        matches!(self, Outcome::Hit | Outcome::Miss)
    }
}

/// The expected `patterns` array of every query in a workload's mix:
/// `render_patterns` of a fresh mine at that θ and `max_edges`.
pub struct ServeGate {
    expected: HashMap<Query, String>,
}

impl ServeGate {
    /// Mines every query of the workload's mix afresh, on two threads.
    pub fn new(
        workload: Workload,
        db: &GraphDatabase,
        taxonomy: &Taxonomy,
    ) -> Result<ServeGate, String> {
        let queries = workload.serve_grid();
        let mine = |q: &Query| -> Result<(Query, String), String> {
            let mut cfg = TaxogramConfig::with_threshold(theta_of(q.theta));
            cfg.max_edges = MAX_EDGES_KEYS[q.key];
            let r = Taxogram::new(cfg)
                .mine(db, taxonomy)
                .map_err(|e| e.to_string())?;
            Ok((*q, tsg_serve::render_patterns(&r.patterns)))
        };
        let (left, right) = queries.split_at(queries.len() / 2);
        let mined = std::thread::scope(|s| {
            let other = s.spawn(|| right.iter().map(mine).collect::<Vec<_>>());
            let mut mined: Vec<_> = left.iter().map(mine).collect();
            mined.extend(other.join().expect("gate mining thread panicked"));
            mined
        });
        Ok(ServeGate {
            expected: mined.into_iter().collect::<Result<_, _>>()?,
        })
    }

    /// Classifies a response to `q`, comparing its patterns byte for
    /// byte. Only the short head and tail around the patterns array are
    /// searched, so checking a megabyte answer costs one comparison.
    pub fn check(&self, q: Query, response: &str) -> Outcome {
        let Some((head, rest)) = response.split_once(",\"patterns\":") else {
            return if response.contains("\"type\":\"shed\"") {
                Outcome::Shed
            } else {
                Outcome::Error
            };
        };
        let Some((patterns, tail)) = rest.rsplit_once(",\"termination\":") else {
            return Outcome::Mismatch;
        };
        let correct = head.contains("\"type\":\"result\"")
            && tail.contains("\"complete\":true")
            && self.expected.get(&q).is_some_and(|want| want == patterns);
        if !correct {
            Outcome::Mismatch
        } else if head.contains("\"cache\":\"hit\"") {
            Outcome::Hit
        } else {
            Outcome::Miss
        }
    }
}

/// One request of a load run.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client latency at reference speed.
    pub norm_ms: f64,
    /// Raw client latency.
    pub wall_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
}

/// What a load run measured.
#[derive(Default)]
pub struct ServeRun {
    /// Every request, in window order.
    pub samples: Vec<Sample>,
    /// Summed window time at reference speed, seconds.
    pub norm_secs: f64,
    /// Summed raw window time, seconds.
    pub wall_secs: f64,
    /// Smoothed calibration of each window, ms.
    pub calib_ms: Vec<f64>,
    /// Peak resident set of each window, MB.
    pub peaks_mb: Vec<f64>,
}

impl ServeRun {
    /// Latencies of requests with the given outcomes, `(norm, raw)`.
    pub fn latencies(&self, pick: impl Fn(Outcome) -> bool) -> (Vec<f64>, Vec<f64>) {
        self.samples
            .iter()
            .filter(|s| pick(s.outcome))
            .map(|s| (s.norm_ms, s.wall_ms))
            .unzip()
    }

    /// Byte-correct requests.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.outcome.ok()).count()
    }
}

/// One client's share of a window: requests until `end`, then it stops
/// and waits for nothing more.
fn client_window(
    client: &mut Client,
    mix: &mut Mix,
    gate: &ServeGate,
    name: &str,
    seq: &mut u64,
    end: Instant,
) -> Vec<(f64, Outcome)> {
    let mut out = Vec::new();
    while Instant::now() < end {
        let q = mix.next_query();
        *seq += 1;
        let frame = q.frame(&format!("{name}-{seq}"));
        let start = Instant::now();
        let answer = client.call(&frame);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let outcome = answer.map_or(Outcome::Lost, |line| gate.check(q, line));
        out.push((ms, outcome));
        if outcome == Outcome::Lost && client.reconnect().is_err() {
            break;
        }
    }
    out
}

/// The closed-loop clients of a workload's mix. Each keeps its place in
/// the mix across calls to [`Load::measure`], so the first request of a
/// visit still finds its key evicted. Connections are opened per call:
/// the daemon closes connections that stay idle in between.
pub struct Load {
    clients: Vec<(Mix, String, u64)>,
}

impl Load {
    /// The clients of `workload`'s mix for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Load {
        Load {
            clients: (0..CLIENTS)
                .map(|i| (Mix::new(workload, seed, i), format!("c{i}"), 0u64))
                .collect(),
        }
    }

    /// Runs the mix against `daemon` for `budget`, adding its windows to
    /// `run`.
    pub fn measure(
        &mut self,
        daemon: &Daemon,
        gate: &ServeGate,
        cal: &mut Calibrator,
        budget: Duration,
        run: &mut ServeRun,
    ) -> Result<(), String> {
        let mut clients = Vec::with_capacity(CLIENTS);
        for (mix, name, seq) in &mut self.clients {
            clients.push((daemon.connect()?, mix, name.as_str(), seq));
        }
        let mut windows = Vec::new();
        let deadline = Instant::now() + budget;
        while windows.is_empty() || Instant::now() < deadline {
            crate::reset_peak_rss()?;
            let before = cal.measure();
            let start = Instant::now();
            let end = start + WINDOW;
            let requests: Vec<(f64, Outcome)> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|(client, mix, name, seq)| {
                        s.spawn(move || client_window(client, mix, gate, name, seq, end))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            let after = cal.measure();
            run.peaks_mb.push(crate::peak_rss_mb());
            windows.push((Timing::new(wall_ms, before, after), requests));
        }
        let brackets: Vec<f64> = windows.iter().map(|(t, _)| t.calib_ms).collect();
        for (i, (raw, requests)) in windows.into_iter().enumerate() {
            let near = &brackets[i.saturating_sub(SMOOTH)..(i + SMOOTH + 1).min(brackets.len())];
            let calib = crate::stats::median(near).expect("a window has itself nearby");
            let t = Timing::new(raw.wall_ms, calib, calib);
            run.norm_secs += t.norm_ms / 1000.0;
            run.wall_secs += t.wall_ms / 1000.0;
            run.calib_ms.push(calib);
            for (wall, outcome) in requests {
                run.samples.push(Sample {
                    norm_ms: t.scale(wall),
                    wall_ms: wall,
                    outcome,
                });
            }
        }
        Ok(())
    }
}
