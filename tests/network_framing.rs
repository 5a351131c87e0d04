//! Wire-level framing edges, three networks, both designs.
//!
//! The paper's network case study: two multiplexed streams are attached
//! to Multics, and "if a third network were to be connected … yet a
//! third handler be added" to the old kernel, whose network code "would
//! grow linearly with the number of networks attached". This file
//! connects that third network — a terminal concentrator with a
//! deliberately quirky frame (length byte *first*, an ignored flags
//! byte, then a two-byte channel) — to both designs, and drives every
//! framing through its edges: empty and partial frames, frames whose
//! length field lies, frames bigger than the kernel's wired buffer, and
//! the empty-channel/unknown-channel distinction. The two designs must
//! agree byte for byte and count for count; what differs is only *what
//! grew*: a few words of data in the new kernel's demultiplexer, a
//! whole handler in the old one.

use multics::kernel::demux::{FramingSpec, StreamId};
use multics::kernel::{Kernel, KernelConfig, KernelError};
use multics::legacy::network::{NetworkId, NetworkKind, MAX_FRAME};
use multics::legacy::{LegacyError, Supervisor};

/// The three framings, paired across designs.
const FRAMINGS: [(FramingSpec, NetworkKind); 3] = [
    (FramingSpec::ARPANET, NetworkKind::Arpanet),
    (FramingSpec::FRONT_END, NetworkKind::FrontEnd),
    (FramingSpec::THIRD_NET, NetworkKind::ThirdNet),
];

/// A resident channel read on the kernel, into a fresh buffer.
fn kread(k: &mut Kernel, stream: StreamId, channel: u16) -> Result<Vec<u8>, KernelError> {
    let mut buf = Vec::new();
    k.demux_read_resident(stream, channel, &mut buf)
        .map(|()| buf)
}

/// A channel read on the old supervisor, into a fresh buffer.
fn lread(s: &mut Supervisor, net: NetworkId, channel: u16) -> Result<Vec<u8>, LegacyError> {
    let mut buf = Vec::new();
    s.network_read_channel(net, channel, &mut buf).map(|()| buf)
}

fn rigs() -> (Kernel, Supervisor) {
    (
        Kernel::boot(KernelConfig::default()),
        Supervisor::boot_default(),
    )
}

/// Feeds one frame to the same framing on both designs; both must
/// return the same verdict.
fn feed(
    k: &mut Kernel,
    s: &mut Supervisor,
    stream: StreamId,
    net: NetworkId,
    frame: &[u8],
) -> Result<(), ()> {
    let kr = k.demux_receive(stream, frame);
    let lr = s.network_receive(net, frame);
    assert_eq!(
        kr.is_ok(),
        lr.is_ok(),
        "designs disagree on frame {frame:?}"
    );
    kr.map_err(|_| ())
}

#[test]
fn third_net_terminal_demultiplexes_identically_on_both_designs() {
    let (mut k, mut s) = rigs();
    let stream = k.demux_attach(FramingSpec::THIRD_NET);
    let net = s.attach_network(NetworkKind::ThirdNet);
    // len=2, flags=0xFF (ignored), channel=0x0009, payload "hi" + noise.
    feed(
        &mut k,
        &mut s,
        stream,
        net,
        &[2, 0xFF, 0, 9, b'h', b'i', b'Z'],
    )
    .unwrap();
    // Different flags byte, same channel: payload appends.
    feed(&mut k, &mut s, stream, net, &[1, 0x00, 0, 9, b'!']).unwrap();
    // Another channel through the same concentrator.
    feed(&mut k, &mut s, stream, net, &[1, 0x20, 0x01, 0x02, b'x']).unwrap();
    assert_eq!(kread(&mut k, stream, 9).unwrap(), b"hi!");
    assert_eq!(lread(&mut s, net, 9).unwrap(), b"hi!");
    assert_eq!(kread(&mut k, stream, 0x0102).unwrap(), b"x");
    assert_eq!(lread(&mut s, net, 0x0102).unwrap(), b"x");
    assert_eq!(k.demux.frame_counts(stream).unwrap(), (3, 0));
    assert_eq!(s.network_frame_counts(net).unwrap(), (3, 0));
}

#[test]
fn a_zero_length_frame_is_accepted_and_reads_back_empty() {
    let (mut k, mut s) = rigs();
    let stream = k.demux_attach(FramingSpec::THIRD_NET);
    let net = s.attach_network(NetworkKind::ThirdNet);
    // len=0: a valid keep-alive; it opens the channel with no bytes.
    feed(&mut k, &mut s, stream, net, &[0, 0, 0, 5]).unwrap();
    assert_eq!(k.demux.frame_counts(stream).unwrap(), (1, 0));
    assert_eq!(s.network_frame_counts(net).unwrap(), (1, 0));
    assert_eq!(kread(&mut k, stream, 5).unwrap(), b"");
    assert_eq!(lread(&mut s, net, 5).unwrap(), b"");
    // …and an unknown channel is a typed error, not an empty read.
    assert_eq!(
        kread(&mut k, stream, 6).unwrap_err(),
        KernelError::NoSuchChannel
    );
    assert_eq!(
        lread(&mut s, net, 6).unwrap_err(),
        LegacyError::NoSuchChannel
    );
}

#[test]
fn partial_frames_are_counted_identically_never_fatal() {
    for (spec, kind) in FRAMINGS {
        let (mut k, mut s) = rigs();
        let stream = k.demux_attach(spec);
        let net = s.attach_network(kind);
        // The empty frame, a one-byte stub, a header with no room for
        // its channel, and a length field that promises more payload
        // than arrived. None may error; all malformed ones must count.
        for frame in [
            &[][..],
            &[1][..],
            &[7, 0][..],
            &[9, 200, 0, 1][..],
            &[200, 0, 0, 1][..],
        ] {
            feed(&mut k, &mut s, stream, net, frame).unwrap();
        }
        let kc = k.demux.frame_counts(stream).unwrap();
        let lc = s.network_frame_counts(net).unwrap();
        assert_eq!(kc, lc, "count mismatch for {kind:?}");
        assert_eq!(kc.0 + kc.1, 5, "every frame accounted for {kind:?}");
        assert!(kc.1 >= 3, "{kind:?} must reject the truncated frames");
    }
}

#[test]
fn oversized_frames_are_typed_errors_on_both_designs() {
    for (spec, kind) in FRAMINGS {
        let (mut k, mut s) = rigs();
        let stream = k.demux_attach(spec);
        let net = s.attach_network(kind);
        let big = vec![0u8; MAX_FRAME + 1];
        assert_eq!(
            k.demux_receive(stream, &big).unwrap_err(),
            KernelError::FrameTooBig {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            },
            "{kind:?}"
        );
        assert_eq!(
            s.network_receive(net, &big).unwrap_err(),
            LegacyError::FrameTooBig {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            },
            "{kind:?}"
        );
        // A refused frame is not counted — it never reached the parse.
        assert_eq!(k.demux.frame_counts(stream).unwrap(), (0, 0));
        assert_eq!(s.network_frame_counts(net).unwrap(), (0, 0));
        // Exactly the buffer size is fine.
        let exact = vec![1u8; MAX_FRAME];
        feed(&mut k, &mut s, stream, net, &exact).unwrap();
        assert_eq!(
            k.demux.frame_counts(stream).unwrap(),
            s.network_frame_counts(net).unwrap()
        );
    }
}

/// The same mixed traffic through all three framings on both designs:
/// identical accept/reject counts and identical channel bytes. The old
/// design paid for this with a third in-kernel handler; the new one
/// with a [`FramingSpec`] constant.
#[test]
fn legacy_and_kernel_demultiplexers_agree_across_all_framings() {
    let traffic: &[&[u8]] = &[
        &[0, 0, 7, b'a'],
        &[2, 1, 0, 7, b'b', b'c'],
        &[7, 2, b'd', b'e', b'f'],
        &[1],
        &[3, 9, 1, 4, b'g', b'h', b'i', b'j'],
        &[0, 0, 7],
        &[255, 255],
    ];
    let (mut k, mut s) = rigs();
    for (spec, kind) in FRAMINGS {
        let stream = k.demux_attach(spec);
        let net = s.attach_network(kind);
        for frame in traffic {
            feed(&mut k, &mut s, stream, net, frame).unwrap();
        }
        assert_eq!(
            k.demux.frame_counts(stream).unwrap(),
            s.network_frame_counts(net).unwrap(),
            "{kind:?} counts"
        );
        for ch in 0..1024u16 {
            let kb = kread(&mut k, stream, ch).ok();
            let lb = lread(&mut s, net, ch).ok();
            assert_eq!(kb, lb, "{kind:?} channel {ch}");
        }
    }
    assert_eq!(
        s.network_count(),
        3,
        "three handlers now live in the old kernel"
    );
    assert_eq!(k.demux.stream_count(), 3, "three specs, one generic parser");
}
