//! One untraced run of one workload: set the system up from raw vectors,
//! check its answers, measure one window, report the end-to-end metrics.

use crate::calibrate::{Sampler, SpeedTrace};
use crate::fixture::{build_index, Data, Expected};
use crate::report::RunResult;
use crate::spec::{Driver, Fixture, Setup, Workload, NAIVE_CHECKED, QUERY_POOL, WARMUP_S};
use crate::stats::median;
use crate::workload::{self, Timing};
use pqfs_ivf::IvfadcIndex;
use pqfs_server::{Client, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Index builds timed per run of a workload that sets up by building.
const BUILD_REPEATS: usize = 3;
/// Load cycles timed per run of a workload that sets up from a saved index.
const LOAD_REPEATS: usize = 9;

/// What the command line chose for every run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Options {
    pub fn fixture(&self, w: &Workload) -> Fixture {
        if self.quick {
            w.fixture.quick()
        } else {
            w.fixture
        }
    }

    pub fn timing(&self) -> Timing {
        let warmup = if self.quick { WARMUP_S / 4.0 } else { WARMUP_S };
        Timing {
            warmup: Duration::from_secs_f64(warmup),
            window: Duration::from_secs_f64(self.seconds),
        }
    }

    pub fn index_path(&self, w: &Workload) -> PathBuf {
        self.out_dir.join(format!("{}.pqiv", w.name))
    }
}

/// The system under test: an index, served over loopback TCP when the
/// workload asks for it. Dropping it shuts the server down and joins it.
pub struct System {
    pub index: Arc<IvfadcIndex>,
    pub server: Option<ServerHandle>,
}

impl System {
    /// Loads the saved index and serves it in-process with the shipped
    /// server defaults; returns once the first health reply has arrived.
    pub fn serve(path: &Path) -> Res<System> {
        let index = Arc::new(IvfadcIndex::load_file(path)?);
        let server = Server::start(Arc::clone(&index), ServerConfig::default())?;
        Client::connect(server.local_addr())?.health()?;
        Ok(System {
            index,
            server: Some(server),
        })
    }

    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(ServerHandle::local_addr)
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

/// The wall-clock spans of the repeated set-up, scaled once the sampler's
/// trace of the host speed is in.
#[derive(Default)]
struct Setups(Vec<(Instant, Instant)>);

impl Setups {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        self.0.push((started, Instant::now()));
        result
    }

    fn raw(&self) -> Vec<f64> {
        self.0.iter().map(|(a, b)| secs(*b - *a)).collect()
    }

    fn scaled(&self, speed: &SpeedTrace) -> Vec<f64> {
        self.0
            .iter()
            .map(|(a, b)| secs(*b - *a) * speed.between(*a, *b))
            .collect()
    }
}

pub fn file_mb(path: &Path) -> Res<f64> {
    Ok(std::fs::metadata(path)?.len() as f64 / 1e6)
}

/// Pool queries whose library answer a run needs: all of them when server
/// answers are compared with it, otherwise what recall and the naive check
/// use.
pub fn expected_count(w: &Workload, fixture: Fixture) -> usize {
    match w.driver {
        Driver::Library => fixture.recall_queries.max(NAIVE_CHECKED),
        _ => QUERY_POOL,
    }
}

pub fn run_untraced(w: &Workload, opts: &Options) -> Res<RunResult> {
    let fixture = opts.fixture(w);
    let data = Data::generate(fixture, opts.seed);
    let path = opts.index_path(w);

    // Set-up, repeated so that its median is steady: one part of the
    // system's write side per workload (see `Setup`).
    let sampler = Sampler::start();
    let mut setups = Setups::default();
    let system = match w.setup {
        Setup::Build => {
            let mut index = None;
            for _ in 0..BUILD_REPEATS {
                drop(index.take());
                index = Some(setups.time(|| build_index(&data, fixture))?);
            }
            let index = index.expect("at least one build");
            index.save_file(&path)?;
            System {
                index: Arc::new(index),
                server: None,
            }
        }
        Setup::Reload => {
            let mut index = build_index(&data, fixture)?;
            for _ in 0..LOAD_REPEATS {
                index = setups.time(|| -> Res<IvfadcIndex> {
                    index.save_file(&path)?;
                    Ok(IvfadcIndex::load_file(&path)?)
                })?;
            }
            System {
                index: Arc::new(index),
                server: None,
            }
        }
        Setup::Serve => {
            build_index(&data, fixture)?.save_file(&path)?;
            let mut system = None;
            for _ in 0..LOAD_REPEATS {
                drop(system.take());
                system = Some(setups.time(|| System::serve(&path))?);
            }
            system.expect("at least one server")
        }
    };
    // The sampler's bursts would delay requests: it watches set-up only.
    let speed = sampler.stop();
    let index_file_mb = file_mb(&path)?;
    std::fs::remove_file(&path)?;
    let sizes = system.index.partition_sizes();

    let expected = Expected::compute(&system.index, w, &data, expected_count(w, fixture));
    let recall = expected.recall(&data, fixture);
    let timing = opts.timing();
    let window = workload::run(w, &system, &data, &expected, timing, None);
    drop(system);
    let summary = window.summary(w, timing);

    let mut result = RunResult::new(w.name, opts.seed, false);
    result.attempted = expected.attempted + window.attempted;
    result.failed = expected.failed + window.failed;
    result.set("qps", summary.scaled.qps);
    result.set("p50_ms", summary.scaled.p50_ms);
    result.set("recall_at_k", recall);
    result.set("setup_s", median(&setups.scaled(&speed)));
    result.set("index_file_mb", index_file_mb);
    result.note("host_speed", summary.host_speed);
    result.note("raw_qps", summary.raw.qps);
    result.note("raw_p50_ms", summary.raw.p50_ms);
    result.note("p99_ms", summary.scaled.p99_ms);
    result.note("raw_p99_ms", summary.raw.p99_ms);
    result.note("raw_setup_s", median(&setups.raw()));
    result.note("operations", summary.operations);
    result.note("samples_in_smallest_segment", summary.min_segment_samples);
    result.note("setup_repeats", setups.0.len());
    result.note("vectors", fixture.vectors);
    result.note(
        "partition_sizes",
        format!(
            "{}..{}",
            sizes.iter().min().copied().unwrap_or(0),
            sizes.iter().max().copied().unwrap_or(0)
        ),
    );
    if w.driver == Driver::ServeOpenLoop {
        result.note("late_share", window.late_share());
        result.note("max_lag_ms", window.max_lag_ms());
    }
    Ok(result)
}
