//! Open-loop load generator: a plain socket client.
//!
//! Each connection sends its requests at their due times whatever the state
//! of earlier replies (requests pipeline on the connection), with one
//! `write` per request line and `TCP_NODELAY` set, so the latency measured
//! is the server's and not an artifact of how the client writes. Latency is
//! timed from each request's due time, so a stall also delays every request
//! queued behind it; how late the generator itself sent is recorded too.

use crate::trace::{SpanId, Tracer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One request of a connection's schedule.
pub struct Request {
    /// When it is due, from the start of the run.
    pub due: Duration,
    /// The request line, ending in `\n`.
    pub line: String,
    /// Whether it is a `mutate` (advances the graph's epoch).
    pub mutate: bool,
    /// Span name when traced.
    pub span: &'static str,
}

/// How one request went.
#[derive(Clone, Debug)]
pub struct Record {
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
    pub reply: String,
    /// Mutations acknowledged (on any connection) before it was sent.
    pub epoch_lo: u64,
    /// Mutations sent (on any connection) before its reply arrived.
    pub epoch_hi: u64,
    pub traced: bool,
}

impl Record {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Mutation progress shared by the connections: a query's reply reflects
/// an epoch between the mutations acknowledged when it was sent and the
/// mutations sent when its reply arrived.
#[derive(Default)]
pub struct Epochs {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// Runs `plan` on `stream` from `start`, tracing every request whose index
/// plus `first_id` is odd when `tracer` is on. Gives up with an error when
/// replies are still missing `grace` after the last request was due.
pub fn drive(
    mut stream: TcpStream,
    plan: &[Request],
    start: Instant,
    epochs: &Epochs,
    tracer: &mut Tracer,
    first_id: u64,
    grace: Duration,
) -> Result<Vec<Record>, String> {
    stream.set_nodelay(true).map_err(|e| format!("set TCP_NODELAY: {e}"))?;
    let tracing = tracer.enabled();
    let give_up = start + plan.last().map_or(Duration::ZERO, |r| r.due) + grace;
    let mut records: Vec<Option<Record>> = vec![None; plan.len()];
    let mut in_flight: VecDeque<(usize, Instant, u64, SpanId)> = VecDeque::new();
    let (mut next, mut done) = (0, 0);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while done < plan.len() {
        let now = Instant::now();
        if next < plan.len() && now >= start + plan[next].due {
            let req = &plan[next];
            if req.mutate {
                epochs.sent.fetch_add(1, Ordering::SeqCst);
            }
            let lo = epochs.acked.load(Ordering::SeqCst);
            let id = first_id + next as u64;
            tracer.set_enabled(tracing && id % 2 == 1);
            let span = tracer.open(req.span, None, id);
            stream.write_all(req.line.as_bytes()).map_err(|e| format!("send: {e}"))?;
            in_flight.push_back((next, Instant::now(), lo, span));
            next += 1;
            continue;
        }
        if now > give_up {
            return Err(format!(
                "{} replies missing {grace:?} after the last due time",
                plan.len() - done
            ));
        }
        let until = if next < plan.len() { start + plan[next].due } else { give_up };
        let wait = until.saturating_duration_since(now).max(Duration::from_micros(200));
        if in_flight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        stream.set_read_timeout(Some(wait)).map_err(|e| format!("set timeout: {e}"))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let recv = Instant::now();
            let reply = String::from_utf8_lossy(&buf[..pos]).into_owned();
            buf.drain(..=pos);
            let (i, sent, epoch_lo, span) =
                in_flight.pop_front().ok_or_else(|| format!("reply without request: {reply}"))?;
            tracer.close(span);
            if plan[i].mutate {
                epochs.acked.fetch_add(1, Ordering::SeqCst);
            }
            let epoch_hi = epochs.sent.load(Ordering::SeqCst);
            let due = start + plan[i].due;
            let traced = span != SpanId::NONE;
            records[i] = Some(Record { due, sent, recv, reply, epoch_lo, epoch_hi, traced });
            done += 1;
        }
    }
    tracer.set_enabled(tracing);
    Ok(records.into_iter().map(|r| r.expect("every request answered")).collect())
}

/// `count` times of a Poisson process over `[0, span)` conditioned on
/// `count` arrivals: sorted uniform draws.
pub fn poisson_times(rng: &mut crate::stats::Rng, count: usize, span: Duration) -> Vec<Duration> {
    let mut times: Vec<Duration> = (0..count).map(|_| span.mul_f64(rng.unit())).collect();
    times.sort();
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server that stalls `stall` before answering its first
    /// request, then answers each line at once.
    fn stalling_server(stall: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                writer.write_all(format!("{{\"echo\":{line:?}}}\n").as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    fn plan(dues_ms: &[u64]) -> Vec<Request> {
        dues_ms
            .iter()
            .map(|&ms| Request {
                due: Duration::from_millis(ms),
                line: format!("r{ms}\n"),
                mutate: false,
                span: "service.count",
            })
            .collect()
    }

    #[test]
    fn latency_is_timed_from_due_time_across_a_stall() {
        let (addr, server) = stalling_server(Duration::from_millis(200));
        let stream = TcpStream::connect(addr).unwrap();
        let mut tracer = Tracer::new(false);
        let records = drive(
            stream,
            &plan(&[0, 20, 40]),
            Instant::now(),
            &Epochs::default(),
            &mut tracer,
            0,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(records[2].reply, "{\"echo\":\"r40\"}");
        // The third request was sent on time but waited behind the stall:
        // its latency from due time covers the rest of the stall.
        assert!(records[2].late_ms() < 100.0, "late {}", records[2].late_ms());
        assert!(records[2].latency_ms() >= 150.0, "latency {}", records[2].latency_ms());
        assert!(records[0].latency_ms() >= 200.0);
    }

    #[test]
    fn a_late_generator_counts_its_lateness() {
        let (addr, server) = stalling_server(Duration::ZERO);
        let stream = TcpStream::connect(addr).unwrap();
        let mut tracer = Tracer::new(true);
        // The run "started" 100 ms ago: every request is already overdue.
        let start = Instant::now() - Duration::from_millis(100);
        let records = drive(
            stream,
            &plan(&[0, 10]),
            start,
            &Epochs::default(),
            &mut tracer,
            0,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        for r in &records {
            assert!(r.late_ms() >= 85.0, "late {}", r.late_ms());
            assert!(r.latency_ms() >= r.late_ms());
        }
        // Odd request ids are traced.
        assert_eq!(records.iter().map(|r| r.traced).collect::<Vec<_>>(), [false, true]);
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn poisson_times_are_sorted_and_in_range() {
        let mut rng = crate::stats::Rng::new(3, 0);
        let t = poisson_times(&mut rng, 500, Duration::from_secs(2));
        assert_eq!(t.len(), 500);
        assert!(t.windows(2).all(|w| w[0] <= w[1]) && t[499] < Duration::from_secs(2));
    }
}
