//! User-domain network protocol code (Ciccarelli, 1977).
//!
//! The kernel keeps only the network-independent demultiplexer; the
//! protocol logic — terminal line assembly, echo policy, whatever a
//! given network needs — runs here. "The bulk of the kernel is much
//! reduced, and only grows slightly as new networks are attached":
//! attaching [`ThirdNetTerminal`]'s network costs the kernel one
//! [`FramingSpec`] value, while all three protocol handlers below are
//! ordinary user code.

use mx_kernel::demux::{FramingSpec, StreamId};
use mx_kernel::{Kernel, KernelError, ProcessId};

/// A line-oriented terminal session over the ARPANET stream.
#[derive(Debug)]
pub struct ArpanetTerminal {
    stream: StreamId,
    channel: u16,
    pid: ProcessId,
    buffer: Vec<u8>,
}

impl ArpanetTerminal {
    /// Attaches (or reuses) the ARPANET stream and claims a channel.
    ///
    /// # Errors
    ///
    /// Gate errors claiming the channel.
    pub fn open(
        kernel: &mut Kernel,
        stream: StreamId,
        channel: u16,
        pid: ProcessId,
    ) -> Result<Self, KernelError> {
        kernel.demux_claim(pid, stream, channel)?;
        Ok(Self {
            stream,
            channel,
            pid,
            buffer: Vec::new(),
        })
    }

    /// The ARPANET framing spec the kernel is given at attach time.
    pub fn framing() -> FramingSpec {
        FramingSpec::ARPANET
    }

    /// Pulls buffered input and returns any complete CR-terminated
    /// lines (ARPANET NVT-ish line discipline, all user-domain).
    ///
    /// # Errors
    ///
    /// Gate errors reading the channel.
    pub fn read_lines(&mut self, kernel: &mut Kernel) -> Result<Vec<String>, KernelError> {
        let mut bytes = Vec::new();
        kernel.demux_read(self.pid, self.stream, self.channel, &mut bytes)?;
        self.buffer.extend_from_slice(&bytes);
        let mut lines = Vec::new();
        while let Some(pos) = self.buffer.iter().position(|b| *b == b'\r') {
            let line: Vec<u8> = self.buffer.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
        }
        Ok(lines)
    }
}

/// A terminal session over the local front-end processor.
#[derive(Debug)]
pub struct FrontEndTerminal {
    stream: StreamId,
    channel: u16,
    pid: ProcessId,
}

impl FrontEndTerminal {
    /// Claims a front-end channel.
    ///
    /// # Errors
    ///
    /// Gate errors claiming the channel.
    pub fn open(
        kernel: &mut Kernel,
        stream: StreamId,
        channel: u16,
        pid: ProcessId,
    ) -> Result<Self, KernelError> {
        kernel.demux_claim(pid, stream, channel)?;
        Ok(Self {
            stream,
            channel,
            pid,
        })
    }

    /// The front-end framing spec.
    pub fn framing() -> FramingSpec {
        FramingSpec::FRONT_END
    }

    /// Reads raw buffered input (the front end already framed it).
    ///
    /// # Errors
    ///
    /// Gate errors reading the channel.
    pub fn read(&mut self, kernel: &mut Kernel) -> Result<Vec<u8>, KernelError> {
        let mut bytes = Vec::new();
        kernel.demux_read(self.pid, self.stream, self.channel, &mut bytes)?;
        Ok(bytes)
    }
}

/// The demonstration third network: attaching it adds *no kernel code*,
/// only this user-domain handler plus a framing spec
/// ([`FramingSpec::THIRD_NET`]: 1-byte length at offset 0, a flags byte
/// at 1, 2-byte channel at 2, payload at 4).
#[derive(Debug)]
pub struct ThirdNetTerminal {
    stream: StreamId,
    channel: u16,
    pid: ProcessId,
}

impl ThirdNetTerminal {
    /// The third network's framing spec — the whole kernel-side cost of
    /// the new network.
    pub fn framing() -> FramingSpec {
        FramingSpec::THIRD_NET
    }

    /// Claims a channel.
    ///
    /// # Errors
    ///
    /// Gate errors claiming the channel.
    pub fn open(
        kernel: &mut Kernel,
        stream: StreamId,
        channel: u16,
        pid: ProcessId,
    ) -> Result<Self, KernelError> {
        kernel.demux_claim(pid, stream, channel)?;
        Ok(Self {
            stream,
            channel,
            pid,
        })
    }

    /// Reads and reverses each datagram (a stand-in for "this network's
    /// odd protocol quirk" living in user space).
    ///
    /// # Errors
    ///
    /// Gate errors reading the channel.
    pub fn read_quirky(&mut self, kernel: &mut Kernel) -> Result<Vec<u8>, KernelError> {
        let mut bytes = Vec::new();
        kernel.demux_read(self.pid, self.stream, self.channel, &mut bytes)?;
        bytes.reverse();
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::Label;
    use mx_kernel::{KernelConfig, UserId};

    fn boot() -> (Kernel, ProcessId) {
        let mut k = Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 200,
            ..KernelConfig::default()
        });
        k.register_account("op", UserId(1), 7, Label::BOTTOM);
        let pid = k.login_residue("op", 7, Label::BOTTOM).unwrap();
        (k, pid)
    }

    #[test]
    fn arpanet_line_discipline_assembles_lines() {
        let (mut k, pid) = boot();
        let stream = k.demux_attach(ArpanetTerminal::framing());
        let mut term = ArpanetTerminal::open(&mut k, stream, 7, pid).unwrap();
        k.demux_receive(stream, &[0, 0, 7, b'h', b'e', b'l'])
            .unwrap();
        assert_eq!(term.read_lines(&mut k).unwrap(), Vec::<String>::new());
        k.demux_receive(stream, &[0, 0, 7, b'l', b'o', b'\r', b'x'])
            .unwrap();
        assert_eq!(term.read_lines(&mut k).unwrap(), vec!["hello".to_string()]);
    }

    #[test]
    fn three_networks_one_kernel_demultiplexer() {
        let (mut k, pid) = boot();
        let arpa = k.demux_attach(ArpanetTerminal::framing());
        let fe = k.demux_attach(FrontEndTerminal::framing());
        let third = k.demux_attach(ThirdNetTerminal::framing());
        assert_eq!(
            k.demux.stream_count(),
            3,
            "three specs, zero new kernel handlers"
        );

        let mut t_fe = FrontEndTerminal::open(&mut k, fe, 3, pid).unwrap();
        k.demux_receive(fe, &[3, 2, b'o', b'k']).unwrap();
        assert_eq!(t_fe.read(&mut k).unwrap(), b"ok");

        let mut t3 = ThirdNetTerminal::open(&mut k, third, 0x0102, pid).unwrap();
        k.demux_receive(third, &[3, 0, 1, 2, b'a', b'b', b'c'])
            .unwrap();
        assert_eq!(t3.read_quirky(&mut k).unwrap(), b"cba");

        let _ = arpa;
    }

    #[test]
    fn events_flow_upward_for_claimed_channels() {
        let (mut k, pid) = boot();
        let stream = k.demux_attach(ArpanetTerminal::framing());
        let _term = ArpanetTerminal::open(&mut k, stream, 9, pid).unwrap();
        k.demux_receive(stream, &[0, 0, 9, b'!']).unwrap();
        let events = k.upm.drain_events();
        assert!(events.iter().any(|e| matches!(
            e,
            mx_kernel::user_process::KernelEvent::ChannelInput { channel: 9, .. }
        )));
    }
}
