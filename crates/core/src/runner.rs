//! Real-backend runner: the paper's user-level storage server over actual
//! files.
//!
//! [`RealNode`] hosts a [`StorageServer`] on a wall-clock loop, executing
//! its disk requests against real files with positioned reads on a worker
//! pool (the asynchronous-I/O structure of the paper's implementation,
//! with `O_DIRECT` when the filesystem allows it). Clients call
//! [`RealNode::read`] from any thread; requests flow through the same
//! classifier / dispatch-set / buffered-set machinery as the simulation.
//!
//! The runner demonstrates and measures *scheduling*: it performs the real
//! I/O and reports completions and timing, but does not hand data buffers
//! back to clients (an `xdd`-style exerciser rather than a file server).

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use seqio_simcore::SimTime;

use crate::config::ServerConfig;
use crate::server::{ClientRequest, ServerMetrics, ServerOutput, StorageServer};

const BLOCK: u64 = 512;

/// One read job for the I/O worker pool.
#[derive(Debug)]
struct Job {
    backend_id: u64,
    disk: usize,
    offset: u64,
    len: usize,
}

enum Control {
    Client { req: ClientRequest, reply: Sender<io::Result<()>> },
    BackendDone { backend_id: u64, result: io::Result<()> },
    Shutdown,
}

/// A running user-level storage server over real files.
#[derive(Debug)]
pub struct RealNode {
    control: Sender<Control>,
    server_thread: Option<JoinHandle<ServerMetrics>>,
    io_threads: Vec<JoinHandle<()>>,
    next_client: AtomicU64,
    bytes_read: Arc<AtomicU64>,
    capacities: Vec<u64>,
}

impl RealNode {
    /// Opens `paths` (one file per "disk") and starts the server with
    /// `io_threads` backend workers.
    ///
    /// When `direct_io` is set, files are opened with `O_DIRECT` if the
    /// platform and filesystem allow it; otherwise the flag is dropped with
    /// a fallback to buffered reads (many test filesystems reject it).
    ///
    /// # Errors
    ///
    /// Returns any error from opening the files.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty, `io_threads == 0`, or `cfg` is invalid.
    pub fn open<P: AsRef<Path>>(
        paths: &[P],
        cfg: ServerConfig,
        io_threads: usize,
        direct_io: bool,
    ) -> io::Result<RealNode> {
        assert!(!paths.is_empty(), "need at least one backing file");
        assert!(io_threads > 0, "need at least one I/O thread");
        cfg.validate().expect("invalid server config");

        let mut files = Vec::with_capacity(paths.len());
        let mut capacities = Vec::with_capacity(paths.len());
        for p in paths {
            let file = open_file(p.as_ref(), direct_io)?;
            let len = file.metadata()?.len();
            capacities.push(len / BLOCK);
            files.push(Arc::new(file));
        }

        let (control_tx, control_rx) = mpsc::channel::<Control>();
        // The workers share one job receiver: whichever is idle takes the
        // next job.
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let bytes_read = Arc::new(AtomicU64::new(0));

        let mut io_handles = Vec::new();
        for w in 0..io_threads {
            let jobs = Arc::clone(&job_rx);
            let done = control_tx.clone();
            let files = files.clone();
            let counter = Arc::clone(&bytes_read);
            io_handles.push(
                std::thread::Builder::new()
                    .name(format!("seqio-io-{w}"))
                    .spawn(move || loop {
                        // The guard drops at the end of this statement, so
                        // the lock is held while waiting for a job, not
                        // while reading. The server dropping the job sender
                        // ends the loop.
                        let Ok(job) = jobs.lock().expect("job receiver lock poisoned").recv()
                        else {
                            break;
                        };
                        let result = read_exact_at(&files[job.disk], job.offset, job.len);
                        if result.is_ok() {
                            counter.fetch_add(job.len as u64, Ordering::Relaxed);
                        }
                        // If the server is gone, just stop.
                        if done
                            .send(Control::BackendDone { backend_id: job.backend_id, result })
                            .is_err()
                        {
                            break;
                        }
                    })
                    .expect("spawn io thread"),
            );
        }

        let server = StorageServer::new(cfg, capacities.clone());
        let server_thread = std::thread::Builder::new()
            .name("seqio-server".into())
            .spawn(move || server_loop(server, control_rx, job_tx))
            .expect("spawn server thread");

        Ok(RealNode {
            control: control_tx,
            server_thread: Some(server_thread),
            io_threads: io_handles,
            next_client: AtomicU64::new(0),
            bytes_read,
            capacities,
        })
    }

    /// Capacity of `disk` in 512-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    pub fn capacity_blocks(&self, disk: usize) -> u64 {
        self.capacities[disk]
    }

    /// Total bytes the backend has read off the files.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Issues a read of `[lba, lba+blocks)` on `disk` and blocks until the
    /// server completes it (from memory or from the file).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`], without contacting the
    /// server, for an unknown disk, an empty read or one that runs past
    /// the disk's end. Otherwise returns any I/O error from the backend,
    /// or an error if the server has shut down.
    pub fn read(&self, disk: usize, lba: u64, blocks: u64) -> io::Result<()> {
        self.check_read(disk, lba, blocks)?;
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        let req = ClientRequest { id, disk, lba, blocks, write: false };
        self.control
            .send(Control::Client { req, reply: reply_tx })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))?;
        reply_rx.recv().map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))?
    }

    /// The checks [`StorageServer::on_client_request`] asserts, as errors.
    fn check_read(&self, disk: usize, lba: u64, blocks: u64) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        let Some(&capacity) = self.capacities.get(disk) else {
            return invalid(format!(
                "unknown disk {disk} (the node has {})",
                self.capacities.len()
            ));
        };
        if blocks == 0 {
            return invalid(format!("empty read at block {lba} of disk {disk}"));
        }
        if lba.checked_add(blocks).is_none_or(|end| end > capacity) {
            return invalid(format!(
                "read of {blocks} blocks at {lba} runs past the end of disk {disk} \
                 ({capacity} blocks)"
            ));
        }
        Ok(())
    }

    /// Stops the server and returns its final metrics.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(mut self) -> ServerMetrics {
        let _ = self.control.send(Control::Shutdown);
        let metrics =
            self.server_thread.take().expect("not yet shut down").join().expect("server panicked");
        // Dropping the job sender (inside the server loop) stops workers.
        for h in self.io_threads.drain(..) {
            h.join().expect("io thread panicked");
        }
        metrics
    }
}

impl Drop for RealNode {
    fn drop(&mut self) {
        if self.server_thread.is_some() {
            let _ = self.control.send(Control::Shutdown);
            if let Some(h) = self.server_thread.take() {
                let _ = h.join();
            }
            for h in self.io_threads.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Hands the server's outputs on: disk requests to the I/O workers,
/// completions to their waiting clients.
fn relay(
    outs: Vec<ServerOutput>,
    jobs: &Sender<Job>,
    waiting: &mut HashMap<u64, Sender<io::Result<()>>>,
) {
    for o in outs {
        match o {
            ServerOutput::SubmitDisk(b) => {
                let job = Job {
                    backend_id: b.id,
                    disk: b.disk,
                    offset: b.lba * BLOCK,
                    len: (b.blocks * BLOCK) as usize,
                };
                let _ = jobs.send(job);
            }
            ServerOutput::CompleteClient { client, .. } => {
                if let Some(tx) = waiting.remove(&client) {
                    let _ = tx.send(Ok(()));
                }
            }
        }
    }
}

/// The server event loop: wall time is mapped onto the simulation clock.
fn server_loop(
    mut server: StorageServer,
    control: Receiver<Control>,
    jobs: Sender<Job>,
) -> ServerMetrics {
    let started = Instant::now();
    let now = |started: Instant| SimTime::from_nanos(started.elapsed().as_nanos() as u64);
    let gc_period = std::time::Duration::from_nanos(server.gc_period().as_nanos());
    let mut next_gc = Instant::now() + gc_period;

    // Client requests waiting for completion, by client id.
    let mut waiting: HashMap<u64, Sender<io::Result<()>>> = HashMap::new();
    // A backend error to relay to every waiter (fills and direct reads
    // alike: a failed read is fatal for the run).
    let mut failed: Option<io::Error> = None;

    loop {
        let timeout = next_gc.saturating_duration_since(Instant::now());
        match control.recv_timeout(timeout) {
            Ok(Control::Client { req, reply }) => {
                waiting.insert(req.id, reply);
                let outs = server.on_client_request(now(started), req);
                relay(outs, &jobs, &mut waiting);
            }
            Ok(Control::BackendDone { backend_id, result }) => {
                if let Err(e) = result {
                    failed = Some(e);
                }
                let outs = server.on_disk_complete(now(started), backend_id);
                relay(outs, &jobs, &mut waiting);
            }
            Ok(Control::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {
                let outs = server.on_gc(now(started));
                relay(outs, &jobs, &mut waiting);
                next_gc = Instant::now() + gc_period;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(e) = failed.take() {
            // Fail every waiter: a backend error is fatal for the run.
            for (_, tx) in waiting.drain() {
                let _ = tx.send(Err(io::Error::new(e.kind(), e.to_string())));
            }
        }
    }
    server.metrics()
}

#[cfg(unix)]
fn open_file(path: &Path, direct_io: bool) -> io::Result<File> {
    use std::os::unix::fs::OpenOptionsExt;
    if direct_io {
        // O_DIRECT (0x4000 on Linux); probe an aligned read and fall back
        // to buffered I/O when the filesystem rejects either the flag or
        // direct reads (e.g. tmpfs, some overlayfs).
        #[cfg(target_os = "linux")]
        {
            let attempt = std::fs::OpenOptions::new().read(true).custom_flags(0x4000).open(path);
            if let Ok(f) = attempt {
                if read_exact_at(&f, 0, 4096).is_ok() {
                    return Ok(f);
                }
            }
        }
    }
    File::open(path)
}

#[cfg(not(unix))]
fn open_file(path: &Path, _direct_io: bool) -> io::Result<File> {
    File::open(path)
}

/// A page-aligned I/O buffer (`O_DIRECT` requires aligned memory).
struct AlignedBuf {
    ptr: *mut u8,
    len: usize,
}

impl AlignedBuf {
    const ALIGN: usize = 4096;

    fn new(len: usize) -> AlignedBuf {
        let size = len.next_multiple_of(Self::ALIGN).max(Self::ALIGN);
        let layout =
            std::alloc::Layout::from_size_align(size, Self::ALIGN).expect("valid aligned layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "aligned allocation failed");
        AlignedBuf { ptr, len: size }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is valid for len bytes and exclusively owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::from_size_align(self.len, Self::ALIGN)
            .expect("valid aligned layout");
        // SAFETY: allocated with the identical layout in `new`.
        unsafe { std::alloc::dealloc(self.ptr, layout) };
    }
}

// SAFETY: the buffer owns its allocation exclusively.
unsafe impl Send for AlignedBuf {}

/// Positioned read of exactly `len` bytes at `offset` (short reads at EOF
/// are treated as success — streams may run off the end of a test file).
fn read_exact_at(file: &File, offset: u64, len: usize) -> io::Result<()> {
    let mut buf = AlignedBuf::new(len);
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let slice = &mut buf.as_mut_slice()[..len];
        let mut done = 0usize;
        while done < len {
            match file.read_at(&mut slice[done..], offset + done as u64) {
                Ok(0) => break, // EOF
                Ok(n) => done += n,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
    #[cfg(not(unix))]
    {
        let _ = (file, offset, buf.as_mut_slice());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(megabytes: usize) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "seqio-runner-test-{}-{}.dat",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let mut f = File::create(&p).unwrap();
        let chunk = vec![7u8; 1 << 20];
        for _ in 0..megabytes {
            f.write_all(&chunk).unwrap();
        }
        p
    }

    fn small_cfg() -> ServerConfig {
        ServerConfig {
            dispatch_streams: 2,
            read_ahead_bytes: 256 * 1024,
            requests_per_residency: 2,
            memory_bytes: 2 * 2 * 256 * 1024,
            ..ServerConfig::default_tuning()
        }
    }

    #[test]
    fn sequential_reads_complete_and_detect_stream() {
        let path = temp_file(4);
        let node = RealNode::open(&[&path], small_cfg(), 2, false).unwrap();
        assert_eq!(node.capacity_blocks(0), 4 * 2048);
        // 32 sequential 64K reads.
        for i in 0..32u64 {
            node.read(0, i * 128, 128).expect("read completes");
        }
        assert!(node.bytes_read() >= 32 * 64 * 1024 / 2, "backend really read");
        let m = node.shutdown();
        assert_eq!(m.client_requests, 32);
        assert_eq!(m.completions, 32);
        assert!(m.streams_detected >= 1, "sequential pattern detected");
        assert!(m.memory_hits > 0, "staging served some requests");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn concurrent_clients_are_all_served() {
        let path = temp_file(8);
        let cfg = small_cfg();
        let node = Arc::new(RealNode::open(&[&path], cfg, 2, false).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let node = Arc::clone(&node);
            handles.push(std::thread::spawn(move || {
                let base = t * 4096; // 2 MiB apart
                for i in 0..16u64 {
                    node.read(0, base + i * 128, 128).expect("read");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let node = Arc::into_inner(node).expect("sole owner");
        let m = node.shutdown();
        assert_eq!(m.completions, 64);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn random_reads_pass_through() {
        let path = temp_file(4);
        let node = RealNode::open(&[&path], small_cfg(), 1, false).unwrap();
        for lba in [0u64, 4096, 1024, 7000, 128] {
            node.read(0, lba, 8).expect("read");
        }
        let m = node.shutdown();
        assert_eq!(m.completions, 5);
        assert!(m.direct_requests >= 4, "scattered reads stay direct");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn oversized_read_after_detection_returns() {
        // M = D * R * N = 512 KiB: once the first read detects a stream, a
        // 2 MiB read on it can never be staged and goes straight to the
        // file when the stream is next admitted.
        let path = temp_file(8);
        let cfg = ServerConfig {
            dispatch_streams: 2,
            read_ahead_bytes: 256 * 1024,
            requests_per_residency: 1,
            memory_bytes: 512 * 1024,
            ..ServerConfig::default_tuning()
        };
        let node = Arc::new(RealNode::open(&[&path], cfg, 2, false).unwrap());
        node.read(0, 0, 256).expect("detecting read");
        let (tx, rx) = mpsc::channel();
        let reader = Arc::clone(&node);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(reader.read(0, 256, 4096));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the oversized read must not hang");
        result.expect("oversized read");
        handle.join().unwrap();
        let node = Arc::into_inner(node).expect("sole owner");
        let m = node.shutdown();
        assert_eq!(m.completions, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn invalid_reads_are_rejected_before_the_server() {
        let path = temp_file(1);
        let node = RealNode::open(&[&path], small_cfg(), 1, false).unwrap();
        let end = node.capacity_blocks(0);
        // Past the end, an unknown disk, no blocks, and an end that wraps
        // past `u64::MAX`.
        for (disk, lba, blocks) in [(0, end - 4, 8), (1, 0, 8), (0, 0, 0), (0, u64::MAX - 3, 8)] {
            let e = node.read(disk, lba, blocks).expect_err("invalid read");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{disk}/{lba}/{blocks}: {e}");
        }
        // The server never saw them: it is still up and counts only this one.
        node.read(0, end - 8, 8).expect("read the last 8 blocks");
        let m = node.shutdown();
        assert_eq!(m.client_requests, 1);
        let _ = std::fs::remove_file(path);
    }
}
