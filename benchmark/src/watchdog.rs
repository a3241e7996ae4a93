//! No-hang guard. A server write commits only when `admit_max` writes
//! are pending or a flush arrives, and `Pending::wait` has no timeout,
//! so a lost flush would block a client forever. Each phase of a run
//! arms a watchdog; if the phase outlives its limit the watchdog fires.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fires `on_expire(label)` on its own thread unless dropped within
/// `limit`. Dropping disarms it and joins the thread.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn arm(
        label: String,
        limit: Duration,
        on_expire: impl FnOnce(&str) + Send + 'static,
    ) -> Watchdog {
        let (disarm, armed) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".to_string())
            .spawn(move || {
                // a dropped sender disconnects the channel: disarmed
                if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                    on_expire(&label);
                }
            })
            .expect("spawn watchdog");
        Watchdog { disarm: Some(disarm), thread: Some(thread) }
    }
}

/// The benchmark's own watchdog: name the workload and phase that hung,
/// remove the page files, and exit non-zero.
pub fn arm_phase(workload: &str, phase: &str, limit: Duration) -> Watchdog {
    Watchdog::arm(format!("{workload}/{phase}"), limit, move |label| {
        eprintln!("colorist-benchmark: watchdog: {label} exceeded {limit:?}; aborting");
        crate::fixture::remove_tmp();
        std::process::exit(3);
    })
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::{catalog, ErGraph};
    use colorist_server::{Server, ServerConfig};
    use colorist_store::{UpdateBatch, Value};

    #[test]
    fn disarmed_watchdog_stays_silent() {
        let (tx, rx) = mpsc::channel::<String>();
        let dog = Watchdog::arm("quiet".into(), Duration::from_secs(3600), move |l| {
            tx.send(l.to_string()).expect("test alive");
        });
        drop(dog);
        assert!(rx.recv().is_err(), "the callback was dropped unfired");
    }

    /// The hang the watchdog exists for: a write below `admit_max` whose
    /// flush is withheld never commits, so its ticket never resolves.
    #[test]
    fn withheld_flush_trips_the_watchdog_instead_of_hanging() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let schema = design(&g, Strategy::Dr).expect("tpcw designs");
        let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::tpcw(&g, 16), 42));
        let customer = g.node_by_name("customer").expect("customer node");
        let target = db.canonical_by_ordinal(customer, 0).expect("a customer");
        let server = Server::start(db, &g, &ServerConfig::default().with_workers(2));
        let client = server.client();

        let (tx, rx) = mpsc::channel::<String>();
        let dog =
            Watchdog::arm("serve_mixed/window".into(), Duration::from_millis(200), move |l| {
                tx.send(l.to_string()).expect("test alive");
            });
        let mut batch = UpdateBatch::new();
        batch.write_attr(target, 1, Value::Text("customer_uname_0".into()));
        let ticket = client.write(batch); // no flush: the ticket cannot resolve
        let blocked = std::thread::spawn(move || ticket.wait());
        let fired = rx.recv_timeout(Duration::from_secs(30)).expect("the watchdog fires");
        assert_eq!(fired, "serve_mixed/window");
        assert!(!blocked.is_finished(), "the client is still blocked on the un-flushed write");
        drop(dog);
        // release the client the way every burst of the benchmark does
        client.flush().wait().expect("flush commits");
        blocked.join().expect("client thread").expect("write commits once flushed");
        server.shutdown();
    }
}
