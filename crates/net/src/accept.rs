//! Blocking accept loops that stop without polling.
//!
//! Every listener in this crate blocks in `accept`. To stop one, its
//! owner sets a stop flag and then [`wake`]s it: one loopback
//! self-connect makes a blocked `accept` return, and the accepting
//! thread sees the flag and drops that connection unread.
//! [`serve`](crate::serve) runs a pool of such accepting handlers;
//! [`AcceptLoop`] is the single-thread form the admin plane and the
//! fault proxy run.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Ceiling on one wake's connect. A loopback connect completes at once;
/// the bound only keeps a broken listener from hanging a shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Connects a [`wake`] tries before it gives up.
const WAKE_ATTEMPTS: u32 = 6;

/// The first pause after a failed connect or accept; it doubles with
/// each further failure, up to [`MAX_BACKOFF`].
const BACKOFF: Duration = Duration::from_millis(10);

/// Ceiling on one such pause.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Connects to the listener bound at `addr`, so that one thread blocked
/// in its `accept` returns. A failed connect (out of descriptors or
/// ports, say) is retried after a growing pause, [`WAKE_ATTEMPTS`] times
/// in all. The connection closes at once; whoever accepts it must have
/// seen the stop flag and drop it unread.
pub(crate) fn wake(addr: SocketAddr) -> io::Result<()> {
    let target = wake_target(addr);
    let mut pause = BACKOFF;
    let mut attempt = 1;
    loop {
        match TcpStream::connect_timeout(&target, WAKE_TIMEOUT) {
            Ok(_) => return Ok(()),
            Err(e) if attempt == WAKE_ATTEMPTS => return Err(e),
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(MAX_BACKOFF);
                attempt += 1;
            }
        }
    }
}

/// Where a wake connects: the listener's own address, except that an
/// unspecified one (`0.0.0.0`, `::`) is reached on the loopback address
/// of the same family. Port, and an IPv6 flow label and scope id, are
/// kept, so a listener on a link-local address is reached on its own
/// interface.
fn wake_target(addr: SocketAddr) -> SocketAddr {
    let mut target = addr;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => target.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => target.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    target
}

/// A blocking `accept` that retries what one peer can cause by resetting
/// its connection before it was accepted; any other error is returned.
pub(crate) fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One thread blocked in `accept` that hands every connection to a
/// handler inline, until [`AcceptLoop::shutdown`] or drop.
pub(crate) struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Starts a thread named `name` that passes each connection accepted
    /// on `listener` to `handle`, until `stop` is set. After an error
    /// [`accept`] returns (out of descriptors, say) the thread pauses and
    /// accepts again, so a passing shortage does not end the loop; an
    /// idle loop never wakes.
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        stop: Arc<AtomicBool>,
        mut handle: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut pause = BACKOFF;
                loop {
                    let accepted = accept(&listener);
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok(stream) => {
                            pause = BACKOFF;
                            handle(stream);
                        }
                        Err(_) => {
                            std::thread::sleep(pause);
                            pause = (pause * 2).min(MAX_BACKOFF);
                        }
                    }
                }
            })?;
        Ok(AcceptLoop {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the stop flag, wakes the accepting thread and joins it; a
    /// second call does nothing.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // A thread no wake reaches is left to see the flag on the
            // listener's next connection rather than hang this call.
            if wake(self.addr).is_ok() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_reaches_a_listener_on_the_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind the unspecified address");
        let addr = listener.local_addr().expect("local addr");
        assert!(addr.ip().is_unspecified());
        let blocked = std::thread::spawn(move || accept(&listener).map(drop));
        wake(addr).expect("wake connects over loopback");
        blocked
            .join()
            .expect("accepting thread panicked")
            .expect("accept returned the wake");
    }

    #[test]
    fn wake_target_keeps_a_bound_address_whole() {
        let v4 = SocketAddr::from(([0, 0, 0, 0], 7001));
        assert_eq!(wake_target(v4), SocketAddr::from(([127, 0, 0, 1], 7001)));
        let v6 = SocketAddr::from((Ipv6Addr::UNSPECIFIED, 7002));
        assert_eq!(
            wake_target(v6),
            SocketAddr::from((Ipv6Addr::LOCALHOST, 7002))
        );
        let link_local =
            std::net::SocketAddrV6::new(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1), 7003, 0, 3);
        assert_eq!(wake_target(link_local.into()), link_local.into());
        let bound = SocketAddr::from(([192, 0, 2, 7], 7004));
        assert_eq!(wake_target(bound), bound);
    }
}
