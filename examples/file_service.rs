//! A network file service — the paper's "specialized systems that are
//! dedicated to file storage and management".
//!
//! Three networks feed the kernel's *one* network-independent
//! demultiplexer; an unprivileged user-domain server process turns the
//! demultiplexed requests into file operations through the ordinary
//! gates. Attaching the third network costs the kernel a framing spec —
//! a few words of data — and nothing else.
//!
//! Wire protocol (inside each network's own framing): one request per
//! frame payload:
//!
//! ```text
//!   'W' <name-byte> <page> <value>   write value to page of file
//!   'R' <name-byte> <page>           read page of file (prints result)
//! ```
//!
//! ```text
//! cargo run --example file_service
//! ```

use multics::aim::Label;
use multics::hw::Word;
use multics::kernel::demux::StreamId;
use multics::kernel::{Acl, Kernel, KernelConfig, KernelError, ProcessId, UserId};
use multics::user::{ArpanetTerminal, FrontEndTerminal, NameSpace, ThirdNetTerminal};

/// The unprivileged file server: owns a directory of files keyed by a
/// one-byte name and executes requests arriving on its channels.
struct FileServer {
    pid: ProcessId,
    ns: NameSpace,
    served: u64,
}

impl FileServer {
    fn new(kernel: &mut Kernel, pid: ProcessId) -> Self {
        let root = kernel.root_token();
        kernel
            .create_entry(
                pid,
                root,
                "served",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                true,
            )
            .expect("server directory");
        Self {
            pid,
            ns: NameSpace::new(kernel, pid),
            served: 0,
        }
    }

    fn ensure_file(&mut self, kernel: &mut Kernel, name: u8) -> Result<u32, KernelError> {
        let path = format!(">served>file-{name}");
        match self.ns.initiate(kernel, &path) {
            Ok(segno) => Ok(segno),
            Err(KernelError::NoEntry) => {
                let dir = self.ns.resolve(kernel, ">served")?;
                kernel.create_entry(
                    self.pid,
                    dir,
                    &format!("file-{name}"),
                    Acl::owner(UserId(1)),
                    Label::BOTTOM,
                    false,
                )?;
                self.ns.initiate(kernel, &path)
            }
            Err(e) => Err(e),
        }
    }

    /// Executes one request payload; returns a human-readable log line.
    fn serve(&mut self, kernel: &mut Kernel, payload: &[u8]) -> String {
        self.served += 1;
        let reply = (|| -> Result<String, KernelError> {
            match payload {
                [b'W', name, page, value] => {
                    let segno = self.ensure_file(kernel, *name)?;
                    kernel.write_word(
                        self.pid,
                        segno,
                        u32::from(*page) * 1024,
                        Word::new(u64::from(*value)),
                    )?;
                    Ok(format!("W file-{name} page {page} := {value}"))
                }
                [b'R', name, page] => {
                    let segno = self.ensure_file(kernel, *name)?;
                    let w = kernel.read_word(self.pid, segno, u32::from(*page) * 1024)?;
                    Ok(format!("R file-{name} page {page} -> {}", w.raw()))
                }
                _ => Ok("malformed request dropped".to_string()),
            }
        })();
        match reply {
            Ok(s) => s,
            Err(e) => format!("request failed: {e}"),
        }
    }
}

fn main() {
    let mut kernel = Kernel::boot(KernelConfig::default());
    kernel.register_account("server", UserId(1), 1, Label::BOTTOM);
    let pid = kernel
        .login_residue("server", 1, Label::BOTTOM)
        .expect("server login");

    // One demultiplexer, three networks: the kernel grows by three
    // framing specs, not three handlers.
    let arpa: StreamId = kernel.demux_attach(ArpanetTerminal::framing());
    let fe: StreamId = kernel.demux_attach(FrontEndTerminal::framing());
    let third: StreamId = kernel.demux_attach(ThirdNetTerminal::framing());
    for (stream, channel) in [(arpa, 7u16), (fe, 3), (third, 0x0102)] {
        kernel.demux_claim(pid, stream, channel).expect("claim");
    }
    println!(
        "file service up: {} streams through the single kernel demultiplexer\n",
        kernel.demux.stream_count()
    );

    let mut server = FileServer::new(&mut kernel, pid);

    // Traffic arrives from all three networks, each in its own framing.
    // ARPANET: 3-byte leader then payload.
    let arpa_frames: Vec<Vec<u8>> = vec![
        vec![0, 0, 7, b'W', 1, 0, 42],
        vec![0, 0, 7, b'W', 1, 5, 43],
        vec![0, 0, 7, b'R', 1, 0],
    ];
    // Front end: channel, length, payload.
    let fe_frames: Vec<Vec<u8>> = vec![
        vec![3, 4, b'W', 2, 0, 99],
        vec![3, 3, b'R', 2, 0],
        vec![3, 3, b'R', 1, 5], // Cross-network read of net-1's file.
    ];
    // Third net: length, flags, 2-byte channel, payload.
    let third_frames: Vec<Vec<u8>> = vec![
        vec![3, 0, 1, 2, b'R', 9, 0],
        vec![4, 0, 1, 2, b'W', 9, 0, 7],
    ];

    for f in &arpa_frames {
        kernel.demux_receive(arpa, f).unwrap();
    }
    for f in &fe_frames {
        kernel.demux_receive(fe, f).unwrap();
    }
    for f in &third_frames {
        kernel.demux_receive(third, f).unwrap();
    }

    // The server drains each channel and serves the requests.
    let mut bytes = Vec::new();
    for (label, stream, channel) in [
        ("arpanet", arpa, 7u16),
        ("front-end", fe, 3),
        ("third-net", third, 0x0102),
    ] {
        kernel
            .demux_read(pid, stream, channel, &mut bytes)
            .expect("read channel");
        // Requests were concatenated by the demux; re-split by opcode
        // arity (W=4 bytes, R=3).
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let len = if rest[0] == b'W' { 4 } else { 3 };
            let (req, tail) = rest.split_at(len.min(rest.len()));
            println!("[{label}] {}", server.serve(&mut kernel, req));
            rest = tail;
        }
    }

    println!("\nserved {} requests", server.served);
    println!(
        "events delivered upward through the real-memory queue: {}",
        kernel.vpm.read_eventcount(kernel.upm.queue_event)
    );
    let (frames_in, frames_bad) = kernel.demux.frame_counts(arpa).unwrap();
    println!("arpanet stream: {frames_in} frames in, {frames_bad} dropped");
}
