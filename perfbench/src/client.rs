//! TCP load generator: two lanes (threads), each holding at most one
//! connection, so never more than two threads or two open connections.
//!
//! Lanes take the next arrival from a shared counter when they are ready to
//! send. Open loop ([`Pace::Open`]): a lane waits for the arrival's due
//! time while reading responses and sends it on time or late; a stall
//! therefore shows as lag on later arrivals, and latency is timed from the
//! due time. Closed loop ([`Pace::Closed`]): a lane sends as soon as fewer
//! than `window` requests are outstanding on its connection, until the
//! phase's time is up. With `per_conn = Some(k)` a lane closes its
//! connection after `k` requests (once they are answered) and opens a
//! fresh one for the next.

use crate::inputs::Arrival;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads, and so the most connections open at once.
const LANES: usize = 2;

/// How long a lane waits for an outstanding response before counting the
/// rest of its connection's requests as lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long past the last due time a phase may run; whatever is unanswered
/// then is lost. Bounds a run against a wedged daemon.
const PHASE_OVERRUN: Duration = Duration::from_secs(60);

/// How a phase paces its arrivals.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each arrival is sent at its due time.
    Open,
    /// Due times are ignored: each lane keeps up to `window` requests
    /// outstanding on its connection and takes no new arrival after
    /// `seconds`. Every arrival taken is sent; the rest are not part of
    /// the phase.
    Closed { window: usize, seconds: f64 },
}

/// What happened to one arrival.
#[derive(Debug, Clone)]
pub struct Record {
    /// Arrival index (also the wire `id`).
    pub index: usize,
    pub sent: Instant,
    /// When the response line arrived; `None` = lost.
    pub received: Option<Instant>,
    /// Position of the request on its connection (0 = first).
    pub conn_pos: usize,
    pub response: String,
}

/// Result of one phase.
#[derive(Debug)]
pub struct PhaseRun {
    pub start: Instant,
    /// One record per arrival that was sent, in no particular order.
    pub records: Vec<Record>,
    /// Arrivals the lanes took: the first `taken` of the schedule (all of
    /// it in an open-loop phase that ran to the end).
    pub taken: usize,
    /// Connections opened.
    pub connections: usize,
}

/// Drives `schedule` against `addr`; `line(i)` is arrival `i`'s request
/// line, newline included.
pub fn run(
    addr: &str,
    schedule: &[Arrival],
    line: &(dyn Fn(usize) -> String + Sync),
    per_conn: Option<usize>,
    pace: Pace,
) -> PhaseRun {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let length = match pace {
        Pace::Open => schedule.last().map_or(Duration::ZERO, |a| a.due),
        Pace::Closed { seconds, .. } => Duration::from_secs_f64(seconds),
    };
    let deadline = start + length + PHASE_OVERRUN;
    let load = Load {
        addr,
        schedule,
        line,
        per_conn,
        pace,
        next: &next,
        start,
        deadline,
    };
    let lanes: Vec<(Vec<Record>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|_| scope.spawn(|| lane(&load, start + length)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(schedule.len());
    let mut connections = 0;
    for (r, c) in lanes {
        records.extend(r);
        connections += c;
    }
    PhaseRun {
        start,
        records,
        taken: next.into_inner().min(schedule.len()),
        connections,
    }
}

/// What every lane of a phase shares.
struct Load<'a> {
    addr: &'a str,
    schedule: &'a [Arrival],
    line: &'a (dyn Fn(usize) -> String + Sync),
    per_conn: Option<usize>,
    pace: Pace,
    next: &'a AtomicUsize,
    start: Instant,
    deadline: Instant,
}

/// When [`Conn::pump`] stops reading.
#[derive(Clone, Copy)]
enum Until {
    /// At this instant.
    Time(Instant),
    /// Once fewer than this many requests are outstanding (`Room(1)`: none).
    Room(usize),
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Records of sent requests still awaiting their response, in order.
    pending: VecDeque<Record>,
    sent: usize,
    dead: bool,
    /// The phase's deadline; waits never run past it.
    deadline: Instant,
}

impl Conn {
    fn open(addr: &str, deadline: Instant) -> Option<Conn> {
        for _ in 0..50 {
            if let Ok(stream) = TcpStream::connect(addr) {
                let _ = stream.set_nodelay(true);
                return Some(Conn {
                    stream,
                    buf: Vec::new(),
                    pending: VecDeque::new(),
                    sent: 0,
                    dead: false,
                    deadline,
                });
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }

    /// Reads responses until `until`; finished records move to `done`.
    fn pump(&mut self, until: Until, done: &mut Vec<Record>) {
        let mut chunk = [0u8; 16 * 1024];
        let mut last_progress = Instant::now();
        while !self.dead {
            let now = Instant::now();
            let wait = match until {
                Until::Time(t) if now >= t => return,
                Until::Time(t) => t - now,
                Until::Room(n) if self.pending.len() < n => return,
                Until::Room(_) => RESPONSE_TIMEOUT
                    .saturating_sub(now - last_progress)
                    .min(self.deadline.saturating_duration_since(now)),
            };
            if matches!(until, Until::Room(_)) && wait.is_zero() {
                self.dead = true;
                break;
            }
            match wait_readable(&self.stream, wait) {
                Ok(false) => continue,
                Ok(true) => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    let received = Instant::now();
                    last_progress = received;
                    self.buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.buf.drain(..=pos).collect();
                        match self.pending.pop_front() {
                            Some(mut rec) => {
                                rec.received = Some(received);
                                rec.response =
                                    String::from_utf8_lossy(&line).trim_end().to_string();
                                done.push(rec);
                            }
                            // An answer nobody asked for: a protocol error,
                            // surfaced by the id check on the records.
                            None => self.dead = true,
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        // Whatever is still pending on a dead connection is lost.
        done.extend(self.pending.drain(..));
    }
}

/// Waits until `stream` has data (or EOF) or `timeout` passes; `Ok(true)`
/// when readable. Uses ppoll(2), whose timeout is exact to the
/// microsecond, where a socket read timeout rounds up to the kernel's
/// scheduler tick (up to 10 ms) and would show up as generator lag.
#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` /
    // `struct timespec` values for the duration of the call, `nfds` is 1,
    // and a null signal mask means "keep the current mask".
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// One lane; a closed-loop lane takes no arrival after `end`.
fn lane(load: &Load<'_>, end: Instant) -> (Vec<Record>, usize) {
    let mut done = Vec::new();
    let mut conn: Option<Conn> = None;
    let mut opened = 0usize;
    if let Some(wait) = load.start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    loop {
        if let Pace::Closed { window, .. } = load.pace {
            if let Some(c) = conn.as_mut() {
                c.pump(Until::Room(window), &mut done);
            }
            if Instant::now() >= end {
                break;
            }
        }
        let index = load.next.fetch_add(1, Ordering::Relaxed);
        let Some(arrival) = load.schedule.get(index) else {
            break;
        };
        if Instant::now() > load.deadline {
            break;
        }
        if let Pace::Open = load.pace {
            let due = load.start + arrival.due;
            // A connection opens when its first request is due, as a client
            // that connects per burst of work does; until then the lane
            // sleeps.
            match conn.as_mut() {
                Some(c) => c.pump(Until::Time(due), &mut done),
                None => {
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        if conn.is_none() {
            conn = Conn::open(load.addr, load.deadline);
            opened += usize::from(conn.is_some());
        }
        let record = Record {
            index,
            sent: Instant::now(),
            received: None,
            conn_pos: conn.as_ref().map_or(0, |c| c.sent),
            response: String::new(),
        };
        let Some(c) = conn.as_mut() else {
            // The daemon refuses connections: this lane is done, and the
            // arrivals it leaves unsent count as lost.
            done.push(record);
            break;
        };
        if c.stream.write_all((load.line)(index).as_bytes()).is_err() {
            c.dead = true;
            done.push(record);
        } else {
            c.pending.push_back(record);
            c.sent += 1;
        }
        if c.dead || load.per_conn.is_some_and(|k| c.sent >= k) {
            c.pump(Until::Room(1), &mut done);
            conn = None;
        }
    }
    if let Some(mut c) = conn {
        c.pump(Until::Room(1), &mut done);
    }
    (done, opened)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_daemon_loses_the_phase_quickly() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let schedule: Vec<Arrival> = (0..50u64)
            .map(|i| Arrival {
                due: Duration::from_millis(i),
                item: 0,
            })
            .collect();
        let lines = vec!["{}\n".to_string(); schedule.len()];
        let t0 = Instant::now();
        let run = run(&addr, &schedule, &|i| lines[i].clone(), Some(8), Pace::Open);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(run.connections, 0);
        assert!(run.records.iter().all(|r| r.received.is_none()));
    }

    /// Runs `f` against an echo server that answers each line with itself,
    /// one thread per connection.
    fn with_echo_server(f: impl FnOnce(&str) -> PhaseRun) -> PhaseRun {
        use std::io::{BufRead, BufReader};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                std::thread::scope(|scope| {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = stream.expect("accept");
                        scope.spawn(move || {
                            let mut out = stream.try_clone().expect("clone");
                            for line in BufReader::new(stream).lines() {
                                let line = line.expect("line");
                                out.write_all(format!("{line}\n").as_bytes())
                                    .expect("write");
                            }
                        });
                    }
                });
            })
        };
        let run = f(&addr);
        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(&addr)); // wakes the accept loop
        server.join().expect("echo server");
        run
    }

    fn id_line(i: usize) -> String {
        format!("{{\"id\":{i}}}\n")
    }

    #[test]
    fn answers_are_matched_in_order_per_connection() {
        let schedule: Vec<Arrival> = (0..16u64)
            .map(|i| Arrival {
                due: Duration::from_millis(2 * i),
                item: 0,
            })
            .collect();
        let run = with_echo_server(|addr| run(addr, &schedule, &id_line, Some(8), Pace::Open));
        assert_eq!(run.taken, 16);
        assert!(run.connections >= 2);
        assert_eq!(run.records.len(), 16);
        for r in &run.records {
            assert_eq!(r.response, format!("{{\"id\":{}}}", r.index));
            assert!(r.received.is_some());
            assert!(r.conn_pos < 8);
        }
    }

    #[test]
    fn a_closed_loop_sends_every_arrival_it_takes_and_stops_on_time() {
        let schedule = vec![
            Arrival {
                due: Duration::ZERO,
                item: 0,
            };
            100_000
        ];
        let t0 = Instant::now();
        let pace = Pace::Closed {
            window: 2,
            seconds: 0.2,
        };
        let run = with_echo_server(|addr| run(addr, &schedule, &id_line, Some(8), pace));
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(
            run.taken > 16 && run.taken < schedule.len(),
            "{}",
            run.taken
        );
        assert_eq!(run.records.len(), run.taken);
        let mut seen = vec![false; run.taken];
        for r in &run.records {
            assert_eq!(r.response, format!("{{\"id\":{}}}", r.index));
            assert!(!std::mem::replace(&mut seen[r.index], true));
        }
    }
}
