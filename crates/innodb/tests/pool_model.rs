//! The buffer pool against a plain `Vec` model: random sequences of
//! inserts, fetches, lookups, dirtying, cleaning and evictions, checked
//! after every step for the LRU order, the flush-list order, the old
//! sublist's length and the hit/miss counters.
//!
//! The model keeps the LRU list MRU first. A created page enters at the
//! front; a fetched page enters in front of the old sublist, whose length
//! the pool reports and the model holds to ⌊3/8 · len⌋ ± 1. The lookup a
//! fetched page was read for is a miss and moves nothing; any other lookup
//! of a resident page is a hit and moves it to the front.
//! `SHARE_MODEL_CASES` widens the sweep.

use mini_innodb::{BufferPool, NodePage, PoolStats};
use share_rng::{sweep, Rng, StdRng};

#[derive(Default)]
struct Model {
    /// `(page, fetched)`, most recently used first.
    lru: Vec<(u64, bool)>,
    /// `(page, (lsn, pos))`, oldest first change first.
    flush: Vec<(u64, (u64, u64))>,
    stats: PoolStats,
}

impl Model {
    fn pos(&self, no: u64) -> Option<usize> {
        self.lru.iter().position(|&(p, _)| p == no)
    }

    fn is_dirty(&self, no: u64) -> bool {
        self.flush.iter().any(|&(p, _)| p == no)
    }
}

fn page(no: u64) -> NodePage {
    NodePage::new(no, 0, 512)
}

fn check(pool: &BufferPool, m: &Model, step: &str) {
    let len = m.lru.len();
    let lru: Vec<(u64, bool)> = m.lru.iter().rev().map(|&(no, _)| (no, m.is_dirty(no))).collect();
    assert_eq!(pool.coldest_first().collect::<Vec<_>>(), lru, "LRU order after {step}");
    let flush: Vec<u64> = m.flush.iter().map(|&(no, _)| no).collect();
    assert_eq!(pool.flush_list().collect::<Vec<_>>(), flush, "flush list after {step}");
    assert_eq!(pool.oldest_change(), m.flush.first().map(|&(_, c)| c), "after {step}");
    assert_eq!((pool.len(), pool.dirty_count()), (len, m.flush.len()), "after {step}");
    let target = len * 3 / 8;
    let old = pool.old_len();
    assert!(
        old <= len && old + 1 >= target && old <= target + 1,
        "old sublist {old} of {len} pages after {step}"
    );
    assert_eq!(pool.stats(), m.stats, "counters after {step}");
}

fn run_case(case: usize, rng: &mut StdRng) {
    let cap = rng.random_range(8..40usize);
    let universe = 3 * cap as u64;
    let mut pool = BufferPool::new(cap);
    let mut m = Model::default();
    let mut lsn = 0;
    for _ in 0..400 {
        let no = rng.random_range(0..universe);
        let step = match rng.random_range(0..100) {
            0..=19 if !pool.contains(no) && pool.len() < cap => {
                pool.insert(page(no));
                m.lru.insert(0, (no, false));
                format!("insert {no}")
            }
            20..=44 if !pool.contains(no) && pool.len() < cap => {
                // In front of the old sublist the pool reports, which
                // `check` holds to 3/8 of the pages.
                let at = m.lru.len() - pool.old_len();
                let old_before = pool.old_len();
                pool.insert_fetched(page(no));
                m.lru.insert(at, (no, true));
                // The page joined the old sublist, and the boundary moved
                // at most one frame.
                assert!(pool.old_len().abs_diff(old_before + 1) <= 1, "case {case}");
                format!("insert_fetched {no}")
            }
            45..=69 => {
                let found = pool.get_mut(no).map(|p| p.page_no);
                match m.pos(no) {
                    None => m.stats.misses += 1,
                    Some(i) if m.lru[i].1 => {
                        m.lru[i].1 = false;
                        m.stats.misses += 1;
                    }
                    Some(i) => {
                        m.lru.remove(i);
                        m.lru.insert(0, (no, false));
                        m.stats.hits += 1;
                    }
                }
                assert_eq!(found, m.pos(no).map(|_| no), "case {case}");
                format!("get_mut {no}")
            }
            70..=79 if pool.contains(no) => {
                lsn += 1;
                pool.mark_dirty(no, lsn, lsn * 10);
                if !m.is_dirty(no) {
                    m.flush.push((no, (lsn, lsn * 10)));
                }
                format!("mark_dirty {no}")
            }
            80..=87 if pool.contains(no) => {
                pool.mark_clean(no);
                m.flush.retain(|&(p, _)| p != no);
                format!("mark_clean {no}")
            }
            88..=98 => {
                // Evict a clean page: the coldest of the old sublist, or
                // any clean page.
                let old = pool.old_len();
                let victim = if rng.random_bool(0.5) {
                    pool.coldest_first().take(old).find(|&(_, d)| !d)
                } else {
                    pool.coldest_first().filter(|&(_, d)| !d).nth(rng.random_range(0..cap))
                };
                let Some((victim, _)) = victim else { continue };
                assert_eq!(pool.evict(victim).page_no, victim);
                m.lru.remove(m.pos(victim).expect("victim resident"));
                m.stats.evictions += 1;
                format!("evict {victim}")
            }
            99 => {
                pool.clear();
                m.lru.clear();
                m.flush.clear();
                "clear".to_string()
            }
            _ => continue,
        };
        check(&pool, &m, &format!("case {case} step {step}"));
    }
}

#[test]
fn the_pool_matches_a_vec_model() {
    for (case, mut rng) in sweep("innodb/pool_matches_model", 64) {
        run_case(case, &mut rng);
    }
}
