//! In-process daemons, built the way `spechpc serve` and `spechpc fleet`
//! build them, bound on `127.0.0.1:0` and used through the bound
//! listener's address.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use spechpc::harness::exec::PeerFetch;
use spechpc::harness::fleet::{self, Coordinator, FleetConfig, FleetShutdownHandle};
use spechpc::harness::json::{parse_json, Json};
use spechpc::prelude::*;

use crate::http::Client;

/// The daemon's resident run rules and executor settings, as
/// `spechpc serve` sets them: all host cores, a disk cache, a 300 s
/// per-request budget.
pub fn serve_executor(cache_dir: &Path) -> Executor {
    Executor::new(
        RunConfig::default().with_trace(false).with_threads(1),
        ExecConfig::default()
            .with_jobs(0)
            .with_cache_dir(cache_dir)
            .with_timeout_s(300.0),
    )
}

/// One `spechpc serve` daemon on a thread of this process.
pub struct Daemon {
    pub addr: SocketAddr,
    pub cache_dir: PathBuf,
    handle: ShutdownHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Start a daemon over a fresh cache in `cache_dir`. With `peer`,
    /// a local miss first asks the peer whose address is set there
    /// once it is bound (what `spechpc serve --peers` does).
    pub fn start(cache_dir: PathBuf, peer: Option<Arc<OnceLock<String>>>) -> io::Result<Daemon> {
        let mut exec = serve_executor(&cache_dir);
        if let Some(peer) = peer {
            let fetch: PeerFetch = Arc::new(move |key: &RunKey| {
                let addr = peer.get()?.clone();
                fleet::peer_fetcher(vec![addr])(key)
            });
            exec = exec.with_peer_fetch(fetch);
        }
        let server = Server::bind(exec, ServeConfig::default().with_log_requests(false))?;
        let addr = server.local_addr()?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Daemon {
            addr,
            cache_dir,
            handle,
            thread,
        })
    }

    /// Drain and join. Close this daemon's client connections first.
    pub fn stop(self) -> io::Result<()> {
        self.handle.request_drain();
        join(self.thread)
    }
}

/// A `spechpc fleet` coordinator (defaults, hedging off) over two
/// peered worker daemons.
pub struct Fleet {
    pub addr: SocketAddr,
    pub workers: Vec<Daemon>,
    handle: FleetShutdownHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Fleet {
    pub fn start(dirs: [PathBuf; 2]) -> io::Result<Fleet> {
        let peers = [Arc::new(OnceLock::new()), Arc::new(OnceLock::new())];
        let [d0, d1] = dirs;
        let w0 = Daemon::start(d0, Some(Arc::clone(&peers[1])))?;
        let w1 = Daemon::start(d1, Some(Arc::clone(&peers[0])))?;
        let addrs = [w0.addr.to_string(), w1.addr.to_string()];
        for (cell, addr) in peers.iter().zip(&addrs) {
            let _ = cell.set(addr.clone());
        }
        let coordinator = Coordinator::bind(
            FleetConfig::default()
                .with_addr("127.0.0.1:0")
                .with_workers(addrs.to_vec())
                .with_hedging(false),
        )?;
        let addr = coordinator.local_addr()?;
        let handle = coordinator.shutdown_handle();
        let thread = std::thread::spawn(move || coordinator.serve());
        Ok(Fleet {
            addr,
            workers: vec![w0, w1],
            handle,
            thread,
        })
    }

    /// Drain the coordinator, then its workers.
    pub fn stop(self) -> io::Result<()> {
        self.handle.request_drain();
        join(self.thread)?;
        for w in self.workers {
            w.stop()?;
        }
        Ok(())
    }
}

fn join(thread: JoinHandle<io::Result<()>>) -> io::Result<()> {
    thread
        .join()
        .map_err(|_| io::Error::other("daemon thread panicked"))?
}

/// POST every body to `path` over two keep-alive connections (the
/// host's two cores) and return each 200 body, in body order.
pub fn warm(addr: SocketAddr, path: &str, bodies: &[String]) -> Result<Vec<String>, String> {
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut got = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else {
                            return Ok(got);
                        };
                        let resp = client.post(path, body).map_err(|e| e.to_string())?;
                        if resp.status != 200 {
                            return Err(format!("warm-up {path} answered {}", resp.status));
                        }
                        got.push((i, resp.body));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    let mut slots: Vec<Option<String>> = vec![None; bodies.len()];
    for part in parts {
        for (i, body) in part? {
            slots[i] = Some(body);
        }
    }
    slots
        .into_iter()
        .map(|s| s.ok_or_else(|| "warm-up left a key unanswered".to_string()))
        .collect()
}

/// `GET /v1/metrics` as parsed JSON.
pub fn metrics(client: &mut Client) -> Result<Json, String> {
    let resp = client.get("/v1/metrics").map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("/v1/metrics answered {}", resp.status));
    }
    parse_json(&resp.body).ok_or_else(|| "unparsable /v1/metrics".to_string())
}

/// Cache lookups `(hits, lookups)` in a daemon's `/v1/metrics`.
pub fn cache_lookups(m: &Json) -> (u64, u64) {
    let c = m.get("cache");
    let n = |k: &str| c.and_then(|c| c.u64_of(k)).unwrap_or(0);
    let hits = n("hits_mem") + n("hits_disk");
    (hits, hits + n("misses") + n("corrupt"))
}
