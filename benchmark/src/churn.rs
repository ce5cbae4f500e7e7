//! `ftl_churn`: raw [`BlockDevice`] calls on an aged FTL — no engine, no VFS.
//!
//! Serial closed loop on the synchronous (queue depth 1) path. The mix is
//! 55 % single-page overwrites, 20 % reads, 20 % `share_commit` (write four
//! journal pages, `share` them onto their home pages, trim the journal
//! pages: the paper's usage pattern at device level) and 5 % trims, with
//! 80 % of accesses on 20 % of the home range. Every page carries a stamp,
//! so every read is checked against the shadow model as it happens.

use crate::rep::{finish, measure, Recover, RepCtx, RepOut};
use crate::timed::BenchDevice;
use crate::trace::{Probe, WallLayer};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, SharePair};
use share_rng::{Rng, StdRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pages of one `share_commit`.
const COMMIT_PAGES: u64 = 4;

#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Exported capacity in pages.
    pub logical_pages: u64,
    /// Share of the capacity holding home pages (the rest is the journal
    /// area and unmapped space).
    pub fill: f64,
    pub over_provision: f64,
    pub channels: u32,
    /// Warm-up overwrites, as a multiple of the capacity.
    pub warmup_capacities: f64,
    pub verify_samples: usize,
}

struct Rig<D: BenchDevice> {
    dev: D,
    rng: StdRng,
    /// Stamp last acknowledged per home page; 0 = trimmed (reads zeros).
    shadow: Vec<u64>,
    next_stamp: u64,
    home_pages: u64,
    journal_start: u64,
    journal_slots: u64,
    next_slot: u64,
    page: Vec<u8>,
    buf: Vec<u8>,
    seed: u64,
    verify_samples: usize,
}

fn stamp_page(page: &mut [u8], stamp: u64) {
    for w in page.chunks_exact_mut(8) {
        w.copy_from_slice(&stamp.to_le_bytes());
    }
}

fn page_holds(page: &[u8], stamp: u64) -> bool {
    page.chunks_exact(8).all(|w| w == stamp.to_le_bytes())
}

enum Op {
    Overwrite(u64),
    Read(u64),
    ShareCommit([u64; COMMIT_PAGES as usize]),
    Trim(u64),
}

impl<D: BenchDevice> Rig<D> {
    fn build(p: &ChurnParams, seed: u64, ctx: &RepCtx) -> Self {
        let fcfg = FtlConfig::for_capacity_with(
            p.logical_pages * 4096,
            p.over_provision,
            4096,
            128,
            NandTiming::default(),
        )
        .with_parallelism(p.channels, 1)
        .with_telemetry(ctx.telemetry());
        let dev = D::wrap(Ftl::new(fcfg), ctx.probe.clone());
        let home_pages = (p.logical_pages as f64 * p.fill) as u64;
        let journal_slots = 16;
        let mut rig = Rig {
            dev,
            rng: StdRng::seed_from_u64(seed),
            shadow: vec![0; home_pages as usize],
            next_stamp: 1,
            home_pages,
            journal_start: home_pages,
            journal_slots,
            next_slot: 0,
            page: vec![0; 4096],
            buf: vec![0; 4096],
            seed,
            verify_samples: p.verify_samples,
        };
        assert!(home_pages + journal_slots * COMMIT_PAGES <= p.logical_pages);
        for lpn in 0..home_pages {
            rig.overwrite(lpn).expect("fill");
        }
        let warmup = (p.logical_pages as f64 * p.warmup_capacities) as u64;
        for _ in 0..warmup {
            let lpn = rig.pick();
            rig.overwrite(lpn).expect("warm-up overwrite");
        }
        rig
    }

    /// 80 % of picks land in the first 20 % of the home range.
    fn pick(&mut self) -> u64 {
        let hot = self.home_pages / 5;
        if self.rng.random_bool(0.8) {
            self.rng.random_range(0..hot)
        } else {
            self.rng.random_range(hot..self.home_pages)
        }
    }

    fn next_op(&mut self) -> Op {
        let x: f64 = self.rng.random_range(0.0..100.0);
        if x < 55.0 {
            Op::Overwrite(self.pick())
        } else if x < 75.0 {
            Op::Read(self.pick())
        } else if x < 95.0 {
            let mut homes = [0u64; COMMIT_PAGES as usize];
            for i in 0..homes.len() {
                // Distinct home pages: a SHARE batch names each destination once.
                homes[i] = loop {
                    let lpn = self.pick();
                    if !homes[..i].contains(&lpn) {
                        break lpn;
                    }
                };
            }
            Op::ShareCommit(homes)
        } else {
            Op::Trim(self.pick())
        }
    }

    fn fresh_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn overwrite(&mut self, lpn: u64) -> Result<u64, share_core::FtlError> {
        let stamp = self.fresh_stamp();
        stamp_page(&mut self.page, stamp);
        self.dev.write(Lpn(lpn), &self.page)?;
        self.shadow[lpn as usize] = stamp;
        Ok(4096)
    }

    fn read_checked(&mut self, lpn: u64) -> bool {
        self.dev.read(Lpn(lpn), &mut self.buf).is_ok()
            && page_holds(&self.buf, self.shadow[lpn as usize])
    }

    fn share_commit(&mut self, homes: &[u64]) -> Result<u64, share_core::FtlError> {
        let slot = self.journal_start + (self.next_slot % self.journal_slots) * COMMIT_PAGES;
        self.next_slot += 1;
        let mut stamps = [0u64; COMMIT_PAGES as usize];
        for (i, stamp) in stamps.iter_mut().enumerate() {
            *stamp = self.fresh_stamp();
            stamp_page(&mut self.page, *stamp);
            self.dev.write(Lpn(slot + i as u64), &self.page)?;
        }
        let pairs: Vec<SharePair> = homes
            .iter()
            .enumerate()
            .map(|(i, &home)| SharePair::new(Lpn(home), Lpn(slot + i as u64)))
            .collect();
        self.dev.share(&pairs)?;
        for (&home, &stamp) in homes.iter().zip(&stamps) {
            self.shadow[home as usize] = stamp;
        }
        self.dev.trim(Lpn(slot), COMMIT_PAGES)?;
        Ok(COMMIT_PAGES * 4096)
    }
}

impl<D: BenchDevice> crate::rep::Rig for Rig<D> {
    type Dev = D;

    fn device(&mut self) -> &D {
        &self.dev
    }

    fn round(&mut self, n: usize, probe: &Probe, mut lat: Option<&mut Vec<u64>>) -> (u64, u64) {
        let (mut failed, mut user_bytes) = (0u64, 0u64);
        for _ in 0..n {
            let op = probe.span(WallLayer::Gen, "next_op", || self.next_op());
            let t0 = self.dev.clock().now_ns();
            // Page stamping and the shadow update ride inside the device
            // call sequence; their wall time is a few ns per op.
            let r = match op {
                Op::Overwrite(lpn) => self.overwrite(lpn),
                Op::Read(lpn) => {
                    if self.read_checked(lpn) {
                        Ok(0)
                    } else {
                        failed += 1;
                        Ok(0)
                    }
                }
                Op::ShareCommit(homes) => self.share_commit(&homes),
                Op::Trim(lpn) => self.dev.trim(Lpn(lpn), 1).map(|()| {
                    self.shadow[lpn as usize] = 0;
                    0
                }),
            };
            match r {
                Ok(bytes) => user_bytes += bytes,
                Err(_) => failed += 1,
            }
            if let Some(lat) = lat.as_deref_mut() {
                lat.push(self.dev.clock().now_ns() - t0);
            }
        }
        (failed, user_bytes)
    }

    fn verify(&mut self, when: &str, failures: &mut Vec<String>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_c4ec);
        let bad = (0..self.verify_samples)
            .filter(|_| {
                let lpn = rng.random_range(0..self.home_pages);
                !self.read_checked(lpn)
            })
            .count();
        if bad > 0 {
            failures.push(format!(
                "{when}: {bad} sampled pages differ from the shadow model"
            ));
        }
    }

    fn reopen(mut self, failures: &mut Vec<String>) -> (Option<Self>, Recover) {
        if let Err(e) = self.dev.flush() {
            failures.push(format!("final flush: {e}"));
        }
        let ftl = self.dev.into_ftl();
        let fcfg = ftl.config().clone();
        let clock = ftl.clock().clone();
        let nand = ftl.into_nand();
        let (sim0, wall) = (clock.now_ns(), Instant::now());
        let ftl = Ftl::open(fcfg, nand)
            .map_err(|e| failures.push(format!("device reopen: {e}")))
            .ok();
        let recover = Recover {
            sim_ms: (clock.now_ns() - sim0) as f64 / 1e6,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            page_reads: ftl.as_ref().map_or(0, |f| f.stats().recovery_page_reads),
        };
        let rig = ftl.map(|ftl| Rig {
            dev: D::wrap(ftl, Probe::off()),
            ..self
        });
        (rig, recover)
    }
}

pub fn run<D: BenchDevice>(p: &ChurnParams, seed: u64, ctx: &RepCtx) -> RepOut {
    let setup = Instant::now();
    let mut rig = Rig::<D>::build(p, seed, ctx);
    let setup_s = setup.elapsed().as_secs_f64();

    let window = measure(&mut rig, ctx, 1);

    finish(rig, ctx, window, setup_s, None, BTreeMap::new())
}
