//! In-kernel network handlers — one per attached network.
//!
//! "Two multiplexed communication streams are attached to the Multics
//! system: the ARPANET, and the local front end processor with all its
//! attached terminals. … If a third network were to be connected to
//! Multics, the original strategy would require that yet a third handler
//! be added … the bulk of the network control code would grow linearly
//! with the number of networks attached."
//!
//! Accordingly, each [`NetworkHandler`] here carries its *own* framing
//! logic (the ARPANET handler speaks a leader format, the front-end
//! handler a channel-prefix format), all of it inside the kernel: kernel
//! code grows by a whole handler per network. The restructured
//! user-domain multiplexing — with a small network-independent
//! demultiplexer residue — lives in `mx-user`.

use crate::supervisor::Supervisor;
use crate::types::LegacyError;
use mx_hw::meter::Subsystem;
use mx_hw::Language;
use std::collections::BTreeMap;

pub use mx_hw::MAX_FRAME;

const ARPANET_PARSE_INSTR: u64 = 70;
const FRONTEND_PARSE_INSTR: u64 = 55;
const THIRDNET_PARSE_INSTR: u64 = 62;

/// Which wire protocol a handler speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// ARPANET: 3-byte leader (link, channel-high, channel-low), then
    /// payload.
    Arpanet,
    /// Local front-end processor: 1-byte channel, 1-byte length, then
    /// payload.
    FrontEnd,
    /// The hypothesized third network — a terminal concentrator with a
    /// quirky frame: 1-byte length *first*, 1-byte flags (ignored),
    /// 2-byte big-endian channel, then payload. Exactly the growth the
    /// paper warns about: "yet a third handler be added" to the kernel.
    ThirdNet,
}

/// One in-kernel network handler with its private channel buffers.
#[derive(Debug, Clone)]
pub struct NetworkHandler {
    /// Protocol this handler speaks.
    pub kind: NetworkKind,
    /// Kernel-resident per-channel input buffers.
    channels: BTreeMap<u16, Vec<u8>>,
    /// Frames accepted.
    pub frames_in: u64,
    /// Frames dropped as malformed.
    pub frames_bad: u64,
}

impl NetworkHandler {
    fn new(kind: NetworkKind) -> Self {
        Self {
            kind,
            channels: BTreeMap::new(),
            frames_in: 0,
            frames_bad: 0,
        }
    }
}

/// Handle to an attached network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkId(pub usize);

impl Supervisor {
    /// Attaches a network, adding a whole handler to the kernel.
    pub fn attach_network(&mut self, kind: NetworkKind) -> NetworkId {
        self.networks.push(NetworkHandler::new(kind));
        NetworkId(self.networks.len() - 1)
    }

    /// Number of attached networks (each one a kernel handler).
    pub fn network_count(&self) -> usize {
        self.networks.len()
    }

    /// (accepted, dropped-as-malformed) frame counts for one handler.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchChannel`] for an unknown network id.
    pub fn network_frame_counts(&self, net: NetworkId) -> Result<(u64, u64), LegacyError> {
        self.networks
            .get(net.0)
            .map(|h| (h.frames_in, h.frames_bad))
            .ok_or(LegacyError::NoSuchChannel)
    }

    /// Delivers one raw frame from the wire into the kernel handler,
    /// which parses it with its network-specific logic and appends the
    /// payload to the addressed channel's kernel buffer.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchChannel`] for an unknown network id;
    /// [`LegacyError::FrameTooBig`] when the frame exceeds [`MAX_FRAME`].
    pub fn network_receive(&mut self, net: NetworkId, frame: &[u8]) -> Result<(), LegacyError> {
        self.scoped(Subsystem::Network, |s| s.network_receive_body(net, frame))
    }

    fn network_receive_body(&mut self, net: NetworkId, frame: &[u8]) -> Result<(), LegacyError> {
        if frame.len() > MAX_FRAME {
            return Err(LegacyError::FrameTooBig {
                len: frame.len(),
                max: MAX_FRAME,
            });
        }
        let kind = self
            .networks
            .get(net.0)
            .map(|h| h.kind)
            .ok_or(LegacyError::NoSuchChannel)?;
        // Each network's parsing is separate kernel code.
        let parsed = match kind {
            NetworkKind::Arpanet => {
                self.charge(ARPANET_PARSE_INSTR, Language::Pli);
                if frame.len() < 3 {
                    None
                } else {
                    let channel = u16::from_be_bytes([frame[1], frame[2]]);
                    Some((channel, &frame[3..]))
                }
            }
            NetworkKind::FrontEnd => {
                self.charge(FRONTEND_PARSE_INSTR, Language::Pli);
                if frame.len() < 2 || frame.len() < 2 + frame[1] as usize {
                    None
                } else {
                    let channel = u16::from(frame[0]);
                    let len = frame[1] as usize;
                    Some((channel, &frame[2..2 + len]))
                }
            }
            NetworkKind::ThirdNet => {
                self.charge(THIRDNET_PARSE_INSTR, Language::Pli);
                if frame.len() < 4 || frame.len() < 4 + frame[0] as usize {
                    None
                } else {
                    let channel = u16::from_be_bytes([frame[2], frame[3]]);
                    let len = frame[0] as usize;
                    Some((channel, &frame[4..4 + len]))
                }
            }
        };
        let handler = self
            .networks
            .get_mut(net.0)
            .ok_or(LegacyError::NoSuchChannel)?;
        match parsed {
            Some((channel, payload)) => {
                handler.frames_in += 1;
                handler
                    .channels
                    .entry(channel)
                    .or_default()
                    .extend_from_slice(payload);
                Ok(())
            }
            None => {
                handler.frames_bad += 1;
                Ok(())
            }
        }
    }

    /// A user-domain read of a channel's buffered input (through a
    /// gate): `buf` is left holding exactly that input, and the channel's
    /// kernel buffer is left empty with its capacity.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoSuchChannel`] if the network or channel is
    /// unknown; `buf` is then unchanged.
    pub fn network_read_channel(
        &mut self,
        net: NetworkId,
        channel: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), LegacyError> {
        self.scoped(Subsystem::Network, |s| {
            let cost = s.machine.cost;
            s.machine.clock.charge_gate(&cost);
            let handler = s
                .networks
                .get_mut(net.0)
                .ok_or(LegacyError::NoSuchChannel)?;
            let input = handler
                .channels
                .get_mut(&channel)
                .ok_or(LegacyError::NoSuchChannel)?;
            buf.clear();
            buf.append(input);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A channel read into a fresh buffer.
    fn read(sup: &mut Supervisor, net: NetworkId, channel: u16) -> Result<Vec<u8>, LegacyError> {
        let mut buf = Vec::new();
        sup.network_read_channel(net, channel, &mut buf)
            .map(|()| buf)
    }

    #[test]
    fn arpanet_frames_demultiplex_by_leader() {
        let mut sup = Supervisor::boot_default();
        let net = sup.attach_network(NetworkKind::Arpanet);
        sup.network_receive(net, &[0, 0, 7, b'h', b'i']).unwrap();
        sup.network_receive(net, &[0, 0, 7, b'!']).unwrap();
        sup.network_receive(net, &[0, 0, 9, b'x']).unwrap();
        assert_eq!(read(&mut sup, net, 7).unwrap(), b"hi!");
        assert_eq!(read(&mut sup, net, 9).unwrap(), b"x");
    }

    #[test]
    fn a_read_fills_the_callers_buffer_and_leaves_the_channel_empty() {
        let mut sup = Supervisor::boot_default();
        let net = sup.attach_network(NetworkKind::Arpanet);
        sup.network_receive(net, &[0, 0, 7, b'h', b'i']).unwrap();
        let mut buf = b"stale".to_vec();
        sup.network_read_channel(net, 7, &mut buf).unwrap();
        assert_eq!(buf, b"hi", "the read replaces what the buffer held");
        let input = &sup.networks[net.0].channels[&7];
        assert!(input.is_empty() && input.capacity() >= 2);
        sup.network_read_channel(net, 7, &mut buf).unwrap();
        assert_eq!(buf, b"", "the first read drained the channel");
        buf.extend_from_slice(b"kept");
        assert_eq!(
            sup.network_read_channel(net, 8, &mut buf),
            Err(LegacyError::NoSuchChannel)
        );
        assert_eq!(buf, b"kept", "a refused read leaves the buffer alone");
    }

    #[test]
    fn frontend_frames_use_length_prefix() {
        let mut sup = Supervisor::boot_default();
        let net = sup.attach_network(NetworkKind::FrontEnd);
        sup.network_receive(net, &[3, 2, b'o', b'k', b'X']).unwrap();
        assert_eq!(
            read(&mut sup, net, 3).unwrap(),
            b"ok",
            "trailing garbage ignored"
        );
    }

    #[test]
    fn malformed_frames_counted_not_fatal() {
        let mut sup = Supervisor::boot_default();
        let net = sup.attach_network(NetworkKind::Arpanet);
        sup.network_receive(net, &[1]).unwrap();
        let fe = sup.attach_network(NetworkKind::FrontEnd);
        sup.network_receive(fe, &[9, 200, 1, 2]).unwrap();
        assert_eq!(sup.networks[net.0].frames_bad, 1);
        assert_eq!(sup.networks[fe.0].frames_bad, 1);
        assert_eq!(
            sup.network_count(),
            2,
            "two handlers now live in the kernel"
        );
    }

    #[test]
    fn reading_an_unknown_channel_fails() {
        let mut sup = Supervisor::boot_default();
        let net = sup.attach_network(NetworkKind::Arpanet);
        assert_eq!(
            read(&mut sup, net, 99).unwrap_err(),
            LegacyError::NoSuchChannel
        );
    }
}
