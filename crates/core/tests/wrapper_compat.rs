//! A wrapper canary. The benchmark package's `TimedDevice` forwards every
//! `BlockDevice` method by hand and is compiled only by `scripts/verify.sh`,
//! one tier after `cargo test`. This forwarder is written in that package's
//! spelling — `cmd: QueuedCmd` with the lifetime elided, a wildcard-free
//! `match` over the command's variants, a `Write` built from an owned
//! `Vec<u8>` — so a tenth variant, a renamed field or a `submit` signature a
//! hand-written wrapper cannot forward fails here, in the crate that changed.

use nand_sim::{NandTiming, SimClock};
use share_core::{
    BlockDevice, CmdTag, Completion, DeviceStats, Ftl, FtlConfig, FtlError, Lpn, QueuedCmd,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Share,
    Trim,
    Flush,
}

fn class_of(cmd: &QueuedCmd) -> Class {
    match cmd {
        QueuedCmd::Read { .. } | QueuedCmd::ReadBatch { .. } => Class::Read,
        QueuedCmd::Write { .. } | QueuedCmd::WriteBatch { .. } | QueuedCmd::WriteAtomic { .. } => {
            Class::Write
        }
        QueuedCmd::Share { .. } | QueuedCmd::ShareBatch { .. } => Class::Share,
        QueuedCmd::Trim { .. } => Class::Trim,
        QueuedCmd::Flush => Class::Flush,
    }
}

struct Forward<D> {
    inner: D,
    submitted: Vec<Class>,
}

impl<D: BlockDevice> BlockDevice for Forward<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.inner.read(lpn, buf)
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.inner.write(lpn, data)
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.inner.flush()
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.inner.trim(lpn, len)
    }

    fn submit(&mut self, cmd: QueuedCmd) -> Result<CmdTag, FtlError> {
        let class = class_of(&cmd);
        let r = self.inner.submit(cmd);
        if r.is_ok() {
            self.submitted.push(class);
        }
        r
    }

    fn drain(&mut self) -> Vec<Completion> {
        self.inner.drain()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
}

#[test]
fn a_hand_written_forwarder_carries_owned_and_borrowed_commands() {
    let cfg = FtlConfig::for_capacity_with(64 * 4096, 0.5, 4096, 16, NandTiming::default());
    let mut dev = Forward { inner: Ftl::new(cfg), submitted: Vec::new() };
    let ps = dev.page_size();

    // The benchmark's transcript: an owned single-page write, then a read.
    dev.submit(QueuedCmd::Write { lpn: Lpn(5), data: vec![0x5A; ps] }).unwrap();
    dev.submit(QueuedCmd::Read { lpn: Lpn(5) }).unwrap();
    // What the engines send through the same wrapper: borrowed batches.
    let page = vec![0xC3u8; ps];
    let pages = [(Lpn(6), &page[..]), (Lpn(7), &page[..])];
    dev.submit(QueuedCmd::WriteBatch { pages: &pages }).unwrap();
    dev.submit(QueuedCmd::ReadBatch { lpns: &[Lpn(5), Lpn(6), Lpn(7)], buf: Vec::new() }).unwrap();

    let mut done = dev.drain();
    assert_eq!(done.len(), 4);
    done.sort_by_key(|c| c.tag);
    let outputs: Vec<_> = done.into_iter().map(|c| c.result.unwrap()).collect();
    assert_eq!(outputs[1].clone().into_pages(), Some(vec![0x5A; ps]));
    let flat = outputs[3].clone().into_pages().unwrap();
    assert_eq!(flat, [vec![0x5A; ps], page.clone(), page].concat());
    assert_eq!(dev.submitted, [Class::Write, Class::Read, Class::Write, Class::Read]);
    assert_eq!(dev.stats().host_writes, 3);
}
