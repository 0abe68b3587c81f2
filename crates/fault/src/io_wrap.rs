//! Fault-injecting [`Read`]/[`Write`] wrappers.
//!
//! Each wrapper consumes **one trigger** of its named failpoint at
//! construction and then applies the action deterministically by stream
//! byte offset — so `bitflip(100)` corrupts the same byte of the same file
//! on every run, regardless of buffering or thread scheduling.

use crate::{injected_error, registry, FaultAction};
use std::io::{self, Read, Write};

/// The stream-applicable subset of [`FaultAction`].
#[derive(Debug, Clone, Copy)]
enum StreamFault {
    /// Fail the first IO call.
    Error,
    /// `Read`: EOF after N bytes. `Write`: injected error after N bytes.
    Truncate(u64),
    /// Flip the low bit of the byte at this offset as it passes through.
    Flip(u64),
}

/// Consumes a trigger of `site` and maps it to a stream fault.
/// [`FaultAction::Delay`] sleeps immediately (construction-time latency).
fn stream_fault(site: &str, write: bool) -> Option<StreamFault> {
    match registry::take(site)? {
        FaultAction::Error => Some(StreamFault::Error),
        FaultAction::ShortRead(n) if !write => Some(StreamFault::Truncate(n)),
        FaultAction::ShortWrite(n) if write => Some(StreamFault::Truncate(n)),
        // A short-read armed on a writer (or vice versa) still fails loudly
        // rather than silently doing nothing.
        FaultAction::ShortRead(_) | FaultAction::ShortWrite(_) => Some(StreamFault::Error),
        FaultAction::BitFlip(k) => Some(StreamFault::Flip(k)),
        FaultAction::Delay(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
    }
}

/// A reader that injects the fault armed at its site, if any.
#[derive(Debug)]
pub struct FaultRead<R> {
    inner: R,
    site: &'static str,
    fault: Option<StreamFault>,
    offset: u64,
}

impl<R: Read> FaultRead<R> {
    /// Wraps `inner`, consuming one trigger of the `site` failpoint.
    pub fn new(inner: R, site: &'static str) -> Self {
        let fault = if registry::armed() {
            stream_fault(site, false)
        } else {
            None
        };
        FaultRead {
            inner,
            site,
            fault,
            offset: 0,
        }
    }
}

impl<R: Read> Read for FaultRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let allowed = match self.fault {
            None | Some(StreamFault::Flip(_)) => buf.len(),
            Some(StreamFault::Error) => return Err(injected_error(self.site)),
            Some(StreamFault::Truncate(n)) => {
                let left = n.saturating_sub(self.offset);
                if left == 0 {
                    return Ok(0); // premature EOF: the file "ends" here
                }
                usize::try_from(left).unwrap_or(usize::MAX).min(buf.len())
            }
        };
        let n = self.inner.read(&mut buf[..allowed])?;
        if let Some(StreamFault::Flip(k)) = self.fault {
            if (self.offset..self.offset + n as u64).contains(&k) {
                buf[(k - self.offset) as usize] ^= 1;
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// A writer that injects the fault armed at its site, if any.
#[derive(Debug)]
pub struct FaultWrite<W> {
    inner: W,
    site: &'static str,
    fault: Option<StreamFault>,
    offset: u64,
    scratch: Vec<u8>,
}

impl<W: Write> FaultWrite<W> {
    /// Wraps `inner`, consuming one trigger of the `site` failpoint.
    pub fn new(inner: W, site: &'static str) -> Self {
        let fault = if registry::armed() {
            stream_fault(site, true)
        } else {
            None
        };
        FaultWrite {
            inner,
            site,
            fault,
            offset: 0,
            scratch: Vec::new(),
        }
    }

    /// A view of the wrapped writer (for out-of-band control such as
    /// socket options; writing through it would bypass the fault).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// The wrapped writer (to flush/finish it independently).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allowed = match self.fault {
            None | Some(StreamFault::Flip(_)) => buf.len(),
            Some(StreamFault::Error) => return Err(injected_error(self.site)),
            Some(StreamFault::Truncate(n)) => {
                let left = n.saturating_sub(self.offset);
                if left == 0 {
                    return Err(injected_error(self.site)); // torn write
                }
                usize::try_from(left).unwrap_or(usize::MAX).min(buf.len())
            }
        };
        let n = match self.fault {
            Some(StreamFault::Flip(k))
                if (self.offset..self.offset + allowed as u64).contains(&k) =>
            {
                self.scratch.clear();
                self.scratch.extend_from_slice(&buf[..allowed]);
                self.scratch[(k - self.offset) as usize] ^= 1;
                self.inner.write(&self.scratch)?
            }
            _ => self.inner.write(&buf[..allowed])?,
        };
        self.offset += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::{exclusive, scoped};

    #[test]
    fn passthrough_when_disarmed() {
        let _lock = exclusive();
        let mut out = Vec::new();
        let mut w = FaultWrite::new(&mut out, "w.t.off");
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        assert_eq!(out, b"hello");
        let mut r = FaultRead::new(&b"hello"[..], "r.t.off");
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn short_read_truncates_at_the_exact_offset() {
        let _lock = exclusive();
        let _g = scoped("r.t.short", FaultAction::ShortRead(3));
        let mut r = FaultRead::new(&b"abcdef"[..], "r.t.short");
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abc");
    }

    #[test]
    fn bitflip_corrupts_exactly_one_read_byte() {
        let _lock = exclusive();
        let _g = scoped("r.t.flip", FaultAction::BitFlip(2));
        let mut r = FaultRead::new(&b"aaaa"[..], "r.t.flip");
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        assert_eq!(got, [b'a', b'a', b'a' ^ 1, b'a']);
    }

    #[test]
    fn short_write_tears_then_errors() {
        let _lock = exclusive();
        let _g = scoped("w.t.short", FaultAction::ShortWrite(4));
        let mut out = Vec::new();
        let mut w = FaultWrite::new(&mut out, "w.t.short");
        let err = w.write_all(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(out, b"abcd", "exactly 4 bytes made it to the device");
    }

    #[test]
    fn bitflip_corrupts_exactly_one_written_byte() {
        let _lock = exclusive();
        let _g = scoped("w.t.flip", FaultAction::BitFlip(1));
        let mut out = Vec::new();
        let mut w = FaultWrite::new(&mut out, "w.t.flip");
        w.write_all(b"xy").unwrap();
        w.write_all(b"z").unwrap();
        assert_eq!(out, [b'x', b'y' ^ 1, b'z']);
    }

    #[test]
    fn read_error_fires_on_first_call() {
        let _lock = exclusive();
        let _g = scoped("r.t.err", FaultAction::Error);
        let mut r = FaultRead::new(&b"data"[..], "r.t.err");
        let mut buf = [0u8; 2];
        assert!(r.read(&mut buf).is_err());
    }
}
