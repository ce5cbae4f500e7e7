//! A device with room for a write must take it, at every channel count.
//!
//! `ensure_free` banks `2·(channels − 1)` free blocks for the open lanes on
//! top of the watermarks, and `FtlConfig::validate` does not count them: a
//! small pool on many channels spends most of its spare on open blocks.
//! The collector must still never refuse a write while live data fits.
//! With copyback kept on the victim's channel, 8 channels at 7 %
//! over-provisioning returned `DeviceFull` at write 392 of the stream
//! below; copyback rotating over the channels without the floor rule (at
//! or below the hard floor a full GC lane is skipped for one with room)
//! died on 8 channels at 7, 15 and 30 % (writes 12, 12 and 265).
//!
//! A bounded reverse map that fills in the middle of a `share_batch` has a
//! pinned outcome too: the sub-batches before the one that does not fit
//! stay committed, that one and the later ones are not applied.

use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, FtlError, Lpn, SharePair};
use share_rng::{Rng, StdRng};

const PAGES: u64 = 256;
const PAGE: usize = 4096;
const OVERWRITES: usize = 20_000;

/// Sequential fill, then uniform overwrites; the index of the overwrite
/// that failed, if one did.
fn first_failure(channels: u32, over_provision: f64) -> Option<(usize, String)> {
    let bytes = PAGES * PAGE as u64;
    let cfg = FtlConfig::for_capacity_with(bytes, over_provision, PAGE, 16, NandTiming::zero())
        .with_parallelism(channels, 1);
    let mut ftl = Ftl::new(cfg);
    let page = vec![0x5a; PAGE];
    for lpn in 0..PAGES {
        ftl.write(Lpn(lpn), &page).expect("sequential fill");
    }
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..OVERWRITES {
        if let Err(e) = ftl.write(Lpn(rng.random_range(0..PAGES)), &page) {
            return Some((i, e.to_string()));
        }
    }
    ftl.check_invariants();
    None
}

/// Every over-provisioning level at `channels`, failures listed together.
fn never_fills(channels: u32) {
    let failures: Vec<String> = [0.07, 0.15, 0.3, 0.5]
        .into_iter()
        .filter_map(|op| {
            first_failure(channels, op).map(|(write, e)| format!("OP {op}: write {write}: {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "{channels} ch refused writes with room left: {failures:#?}");
}

#[test]
fn one_channel_never_fills() {
    never_fills(1);
}

#[test]
fn two_channels_never_fill() {
    never_fills(2);
}

#[test]
fn four_channels_never_fill() {
    never_fills(4);
}

#[test]
fn eight_channels_never_fill() {
    never_fills(8);
}

fn read_fill(ftl: &mut Ftl, lpn: u64) -> u8 {
    let mut buf = vec![0u8; ftl.page_size()];
    ftl.read(Lpn(lpn), &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == buf[0]), "lpn {lpn} reads non-uniform content");
    buf[0]
}

/// `share_batch` of three sub-batches on a bounded reverse map with room for
/// one and a half: the second sub-batch is refused, so the command returns
/// `RevMapFull`; the first is committed and survives a remount; the second
/// and third leave their destinations as they were. On one channel every
/// sub-batch is its own log submission; on four the three share one
/// submission group, which commits the first and stops at the second.
#[test]
fn strict_revmap_full_mid_share_batch_keeps_the_sub_batches_before_it() {
    for channels in [1, 4] {
        let cfg = || {
            let mut c = FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 16, NandTiming::zero())
                .with_parallelism(channels, 1);
            let limit = c.deltas_per_page();
            c.revmap_capacity = limit + limit / 2;
            c
        };
        let mut ftl = Ftl::new(cfg());
        let limit = ftl.share_batch_limit() as u64;
        let n = 3 * limit;
        // Sources 0..n read i + 1; destinations n..2n read 100 + i until
        // a SHARE remaps them. Each remap takes one reverse-map slot.
        for i in 0..n {
            let src = vec![i as u8 + 1; ftl.page_size()];
            let dest = vec![100 + i as u8; ftl.page_size()];
            ftl.write(Lpn(i), &src).unwrap();
            ftl.write(Lpn(n + i), &dest).unwrap();
        }
        ftl.flush().unwrap();
        let pairs: Vec<SharePair> = (0..n).map(|i| SharePair::new(Lpn(n + i), Lpn(i))).collect();

        let capacity = cfg().revmap_capacity;
        assert_eq!(ftl.share_batch(&pairs), Err(FtlError::RevMapFull { capacity }));
        assert_eq!(ftl.revmap_len() as u64, limit, "{channels} ch: only the first sub-batch");
        ftl.check_invariants();

        let mut rec = Ftl::open(cfg(), ftl.into_nand()).expect("recovery must succeed");
        rec.check_invariants();
        assert_eq!(rec.revmap_len() as u64, limit, "{channels} ch: after remount");
        for i in 0..n {
            let want = if i < limit { i as u8 + 1 } else { 100 + i as u8 };
            assert_eq!(read_fill(&mut rec, n + i), want, "{channels} ch: destination {}", n + i);
            assert_eq!(read_fill(&mut rec, i), i as u8 + 1, "{channels} ch: source {i}");
        }
        assert_eq!(rec.mapping_of(Lpn(n)), rec.mapping_of(Lpn(0)), "{channels} ch: shared");
    }
}
