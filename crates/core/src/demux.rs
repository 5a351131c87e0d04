//! The network-independent demultiplexer — the kernel residue of the
//! network extraction.
//!
//! Ciccarelli's project moved network *protocol* code to the user
//! domain; what remains in the kernel is only "the actual demultiplexing
//! of this stream … constructed, to a significant extent, in a fashion
//! independent of the particular network." Accordingly this module
//! contains **no per-network code**: a stream is attached with a
//! data-driven [`FramingSpec`] describing where the channel number and
//! payload live in a frame, and one generic routine routes every frame.
//! Adding a third network adds a spec — a few words of data — not a
//! handler. (Compare `mx_legacy::network`, where each network is its own
//! kernel handler.)

use crate::error::KernelError;
use crate::types::ProcessId;
use crate::user_process::{KernelEvent, UserProcessManager};
use crate::vproc::VirtualProcessorManager;
use std::collections::BTreeMap;

pub use mx_hw::MAX_FRAME;

/// Identifies an attached multiplexed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

/// A data-driven description of a network's frame format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramingSpec {
    /// Byte offset of the channel field.
    pub channel_offset: usize,
    /// Width of the channel field in bytes (1 or 2, big-endian).
    pub channel_bytes: usize,
    /// Byte offset of a payload-length field, if the framing has one
    /// (`None` means the payload runs to the end of the frame).
    pub length_offset: Option<usize>,
    /// Byte offset where the payload begins.
    pub payload_offset: usize,
}

impl FramingSpec {
    /// The ARPANET leader: byte 0 link, bytes 1–2 channel, payload after.
    pub const ARPANET: FramingSpec = FramingSpec {
        channel_offset: 1,
        channel_bytes: 2,
        length_offset: None,
        payload_offset: 3,
    };

    /// The local front-end processor: byte 0 channel, byte 1 length,
    /// payload after.
    pub const FRONT_END: FramingSpec = FramingSpec {
        channel_offset: 0,
        channel_bytes: 1,
        length_offset: Some(1),
        payload_offset: 2,
    };

    /// A third network — the terminal concentrator the paper
    /// hypothesizes ("if a third network were to be connected …").
    /// Its framing is deliberately quirky: the *length* comes first,
    /// then a flags byte nothing here interprets, then a two-byte
    /// channel, then the payload. In this design the quirks cost a few
    /// words of data; in `mx_legacy::network` they cost a whole new
    /// kernel handler.
    pub const THIRD_NET: FramingSpec = FramingSpec {
        channel_offset: 2,
        channel_bytes: 2,
        length_offset: Some(0),
        payload_offset: 4,
    };
}

#[derive(Debug, Default)]
struct Stream {
    spec: Option<FramingSpec>,
    channels: BTreeMap<u16, Vec<u8>>,
    /// Which user process has claimed each channel (for event routing).
    owners: BTreeMap<u16, ProcessId>,
    frames_in: u64,
    frames_bad: u64,
}

/// The generic demultiplexer.
#[derive(Debug, Default)]
pub struct DemuxManager {
    streams: Vec<Stream>,
}

impl DemuxManager {
    /// A demultiplexer with no streams attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a multiplexed stream described by `spec`. This is the
    /// whole cost of a new network inside the kernel.
    pub fn attach(&mut self, spec: FramingSpec) -> StreamId {
        self.streams.push(Stream {
            spec: Some(spec),
            ..Stream::default()
        });
        StreamId(self.streams.len() as u32 - 1)
    }

    /// Number of attached streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Claims a channel for a user process; channel input events are
    /// delivered to it through the real-memory queue. The owner may
    /// claim it again; no other process may.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`] for an unknown stream;
    /// [`KernelError::ChannelClaimed`] for another process's channel.
    pub fn claim_channel(
        &mut self,
        stream: StreamId,
        channel: u16,
        pid: ProcessId,
    ) -> Result<(), KernelError> {
        self.check_owner(stream, channel, pid)?;
        let s = &mut self.streams[stream.0 as usize];
        s.owners.insert(channel, pid);
        s.channels.entry(channel).or_default();
        Ok(())
    }

    /// Refuses `pid` a channel another process has claimed. An
    /// unclaimed channel is open to every process.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`] for an unknown stream;
    /// [`KernelError::ChannelClaimed`] for another process's channel.
    pub fn check_owner(
        &self,
        stream: StreamId,
        channel: u16,
        pid: ProcessId,
    ) -> Result<(), KernelError> {
        let s = self
            .streams
            .get(stream.0 as usize)
            .ok_or(KernelError::NoSuchChannel)?;
        match s.owners.get(&channel) {
            Some(&owner) if owner != pid => Err(KernelError::ChannelClaimed),
            _ => Ok(()),
        }
    }

    /// Routes one raw frame with the single generic parse, appending the
    /// payload to the addressed channel and posting a
    /// [`KernelEvent::ChannelInput`] upward.
    ///
    /// Malformed frames are counted and dropped, never fatal.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`] for an unknown stream or a stream
    /// attached without a framing spec;
    /// [`KernelError::FrameTooBig`] when the frame exceeds [`MAX_FRAME`].
    pub fn receive(
        &mut self,
        upm: &mut UserProcessManager,
        vpm: &mut VirtualProcessorManager,
        stream: StreamId,
        frame: &[u8],
    ) -> Result<(), KernelError> {
        if frame.len() > MAX_FRAME {
            return Err(KernelError::FrameTooBig {
                len: frame.len(),
                max: MAX_FRAME,
            });
        }
        let s = self
            .streams
            .get_mut(stream.0 as usize)
            .ok_or(KernelError::NoSuchChannel)?;
        let spec = s.spec.ok_or(KernelError::NoSuchChannel)?;
        let parsed = Self::parse(&spec, frame);
        match parsed {
            Some((channel, payload)) => {
                s.frames_in += 1;
                s.channels
                    .entry(channel)
                    .or_default()
                    .extend_from_slice(payload);
                if s.owners.contains_key(&channel) {
                    upm.deliver(
                        vpm,
                        KernelEvent::ChannelInput {
                            stream: stream.0,
                            channel,
                        },
                    );
                }
                Ok(())
            }
            None => {
                s.frames_bad += 1;
                Ok(())
            }
        }
    }

    /// The one network-independent frame parse.
    fn parse<'f>(spec: &FramingSpec, frame: &'f [u8]) -> Option<(u16, &'f [u8])> {
        if frame.len() < spec.payload_offset {
            return None;
        }
        let channel = match spec.channel_bytes {
            1 => u16::from(*frame.get(spec.channel_offset)?),
            2 => {
                let hi = *frame.get(spec.channel_offset)?;
                let lo = *frame.get(spec.channel_offset + 1)?;
                u16::from_be_bytes([hi, lo])
            }
            _ => return None,
        };
        let payload = &frame[spec.payload_offset..];
        match spec.length_offset {
            None => Some((channel, payload)),
            Some(off) => {
                let len = usize::from(*frame.get(off)?);
                if payload.len() < len {
                    None
                } else {
                    Some((channel, &payload[..len]))
                }
            }
        }
    }

    /// Takes the buffered input of a channel (a user-domain read through
    /// the gate): `buf` is left holding exactly that input, and the
    /// channel's buffer is left empty with its capacity.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`] for unknown stream or channel;
    /// `buf` is then unchanged.
    pub fn read_channel(
        &mut self,
        stream: StreamId,
        channel: u16,
        buf: &mut Vec<u8>,
    ) -> Result<(), KernelError> {
        let input = self
            .streams
            .get_mut(stream.0 as usize)
            .ok_or(KernelError::NoSuchChannel)?
            .channels
            .get_mut(&channel)
            .ok_or(KernelError::NoSuchChannel)?;
        buf.clear();
        buf.append(input);
        Ok(())
    }

    /// (frames accepted, frames dropped) for a stream.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchChannel`] for an unknown stream.
    pub fn frame_counts(&self, stream: StreamId) -> Result<(u64, u64), KernelError> {
        let s = self
            .streams
            .get(stream.0 as usize)
            .ok_or(KernelError::NoSuchChannel)?;
        Ok((s.frames_in, s.frames_bad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_segment::CoreSegmentManager;
    use crate::types::UserId;
    use mx_aim::Label;
    use mx_hw::Machine;

    /// A channel read into a fresh buffer.
    fn read(dx: &mut DemuxManager, stream: StreamId, channel: u16) -> Result<Vec<u8>, KernelError> {
        let mut buf = Vec::new();
        dx.read_channel(stream, channel, &mut buf).map(|()| buf)
    }

    fn rig() -> (
        Machine,
        VirtualProcessorManager,
        UserProcessManager,
        DemuxManager,
    ) {
        let machine = Machine::kernel_proposed();
        let mut csm = CoreSegmentManager::new(0, 4);
        let mut vpm = VirtualProcessorManager::new(&mut csm, 2).unwrap();
        let upm = UserProcessManager::new(&mut vpm, 8, 4, 16);
        (machine, vpm, upm, DemuxManager::new())
    }

    #[test]
    fn one_generic_parser_speaks_both_network_framings() {
        let (mut m, mut vpm, mut upm, mut dx) = rig();
        let _ = &mut m;
        let arpa = dx.attach(FramingSpec::ARPANET);
        let fe = dx.attach(FramingSpec::FRONT_END);
        dx.receive(&mut upm, &mut vpm, arpa, &[0, 0, 7, b'h', b'i'])
            .unwrap();
        dx.receive(&mut upm, &mut vpm, fe, &[3, 2, b'o', b'k', b'X'])
            .unwrap();
        dx.claim_channel(arpa, 7, crate::types::ProcessId(0))
            .unwrap();
        assert_eq!(read(&mut dx, arpa, 7).unwrap(), b"hi");
        dx.claim_channel(fe, 3, crate::types::ProcessId(0)).unwrap();
        assert_eq!(
            read(&mut dx, fe, 3).unwrap(),
            b"ok",
            "length field honoured"
        );
        assert_eq!(dx.stream_count(), 2);
    }

    #[test]
    fn a_read_fills_the_callers_buffer_and_leaves_the_channel_empty() {
        let (_m, mut vpm, mut upm, mut dx) = rig();
        let arpa = dx.attach(FramingSpec::ARPANET);
        dx.receive(&mut upm, &mut vpm, arpa, &[0, 0, 7, b'h', b'i'])
            .unwrap();
        let mut buf = b"stale".to_vec();
        dx.read_channel(arpa, 7, &mut buf).unwrap();
        assert_eq!(buf, b"hi", "the read replaces what the buffer held");
        let input = &dx.streams[arpa.0 as usize].channels[&7];
        assert!(input.is_empty() && input.capacity() >= 2);
        dx.read_channel(arpa, 7, &mut buf).unwrap();
        assert_eq!(buf, b"", "the first read drained the channel");
        buf.extend_from_slice(b"kept");
        assert_eq!(
            dx.read_channel(arpa, 8, &mut buf),
            Err(KernelError::NoSuchChannel)
        );
        assert_eq!(buf, b"kept", "a refused read leaves the buffer alone");
    }

    #[test]
    fn owned_channels_get_upward_events() {
        let (mut m, mut vpm, mut upm, mut dx) = rig();
        let pid = upm.create(&mut m, UserId(1), Label::BOTTOM).unwrap();
        let arpa = dx.attach(FramingSpec::ARPANET);
        dx.claim_channel(arpa, 9, pid).unwrap();
        dx.receive(&mut upm, &mut vpm, arpa, &[0, 0, 9, b'x'])
            .unwrap();
        let events = upm.drain_events();
        assert_eq!(
            events,
            vec![KernelEvent::ChannelInput {
                stream: arpa.0,
                channel: 9
            }]
        );
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (mut m, mut vpm, mut upm, mut dx) = rig();
        let _ = &mut m;
        let fe = dx.attach(FramingSpec::FRONT_END);
        dx.receive(&mut upm, &mut vpm, fe, &[1]).unwrap(); // Too short.
        dx.receive(&mut upm, &mut vpm, fe, &[1, 200, 0]).unwrap(); // Length lies.
        assert_eq!(dx.frame_counts(fe).unwrap(), (0, 2));
    }

    #[test]
    fn unknown_stream_and_channel_are_errors() {
        let (_m, _vpm, _upm, mut dx) = rig();
        assert_eq!(
            read(&mut dx, StreamId(4), 1).unwrap_err(),
            KernelError::NoSuchChannel
        );
        let s = dx.attach(FramingSpec::ARPANET);
        assert_eq!(read(&mut dx, s, 1).unwrap_err(), KernelError::NoSuchChannel);
    }
}
