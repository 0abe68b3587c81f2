//! `pqfs serve`: load an index once, serve it over TCP until SIGTERM.

use crate::args::Args;
use crate::{load_err, CliError, Outcome};
use pqfs_ivf::{IvfadcIndex, SearchBackend};
use pqfs_metrics::fmt_count;
use pqfs_server::server::{Server, ServerConfig};
use pqfs_server::signal;
use std::sync::Arc;
use std::time::Duration;

pub fn cmd_serve(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&["index", "addr", "backend", "max-batch", "queue"])?;
    let index_path = args.require("index")?;
    let addr = args
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let backend: SearchBackend = args
        .get("backend")
        .map(String::as_str)
        .unwrap_or("fastscan")
        .parse()
        .map_err(CliError::Other)?;
    let max_batch = args.usize("max-batch", 32)?;
    let queue_capacity = args.usize("queue", 256)?;
    if max_batch == 0 || queue_capacity == 0 {
        return Err(CliError::Other(
            "--max-batch and --queue must be positive".into(),
        ));
    }

    let index = IvfadcIndex::load_file(&index_path)
        .map_err(|e| load_err(&format!("loading {index_path}"), e))?;
    println!(
        "serving {} vectors, dim {}, {} partitions ({} threads, backend {backend})",
        fmt_count(index.len() as u64),
        index.dim(),
        index.num_partitions(),
        pqfs_pool::ThreadPool::global().threads()
    );

    let config = ServerConfig {
        addr,
        default_backend: backend,
        max_batch,
        queue_capacity,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(Arc::new(index), config).map_err(|e| CliError::Other(e.to_string()))?;

    // Install the SIGTERM/SIGINT latch *after* the server is up so a
    // signal racing startup still terminates the process.
    signal::install();
    // The readiness line scripts and CI wait for; flushed immediately.
    println!("listening on {}", handle.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    while !signal::triggered() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("signal received, draining in-flight requests");
    handle.shutdown_and_join();
    eprintln!("drained, exiting");
    // --metrics-out is written by the shared post-command path in main,
    // so the snapshot includes everything up to the drain.
    Ok(Outcome::Clean)
}
