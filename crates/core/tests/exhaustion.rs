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

use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn};
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
