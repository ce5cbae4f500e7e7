//! The buffer pool's flush list, the order the checkpoint rule flushes in,
//! through the pool's public surface.

use mini_innodb::{BufferPool, NodePage};

fn page(no: u64) -> NodePage {
    NodePage::new(no, 0, 4096)
}

/// A pool holding pages `0..n`, all clean.
fn pool_of(n: u64) -> BufferPool {
    let mut p = BufferPool::new(8);
    for i in 0..n {
        p.insert(page(i));
    }
    p
}

/// Dirty `page_no` by a change logged as `lsn` at redo position `lsn * 100`.
fn dirty(p: &mut BufferPool, page_no: u64, lsn: u64) {
    p.mark_dirty(page_no, lsn, lsn * 100);
}

fn flush_list(p: &BufferPool) -> Vec<u64> {
    p.flush_list().collect()
}

#[test]
fn dirty_pages_come_back_in_first_change_order() {
    let mut p = pool_of(6);
    for (lsn, no) in [(10, 4), (11, 0), (12, 5), (13, 2)] {
        dirty(&mut p, no, lsn);
    }
    // Later changes to dirty pages, and LRU touches, move nothing.
    dirty(&mut p, 4, 20);
    dirty(&mut p, 0, 21);
    p.get_mut(4);
    assert_eq!(flush_list(&p), vec![4, 0, 5, 2]);
    assert_eq!(p.oldest_change(), Some((10, 1_000)));
}

#[test]
fn a_page_dirtied_again_after_its_flush_goes_to_the_tail() {
    let mut p = pool_of(4);
    for (lsn, no) in [(1, 0), (2, 1), (3, 2)] {
        dirty(&mut p, no, lsn);
    }
    p.mark_clean(0);
    assert_eq!(p.oldest_change(), Some((2, 200)));
    dirty(&mut p, 0, 9);
    assert_eq!(flush_list(&p), vec![1, 2, 0]);
    p.mark_clean(2);
    assert_eq!(flush_list(&p), vec![1, 0]);
}

#[test]
fn eviction_unlinks_a_page_in_the_middle_of_the_flush_list() {
    let mut p = pool_of(8);
    for (lsn, no) in [(1, 3), (2, 6), (3, 1)] {
        dirty(&mut p, no, lsn);
    }
    // The eviction path: flush the victim, mark it clean, evict it.
    p.mark_clean(6);
    p.evict(6);
    assert_eq!(flush_list(&p), vec![3, 1]);
    assert_eq!(p.dirty_count(), 2);
    p.insert(page(6));
    dirty(&mut p, 6, 4);
    assert_eq!(flush_list(&p), vec![3, 1, 6]);
    for no in [3, 1, 6] {
        p.mark_clean(no);
    }
    assert_eq!(flush_list(&p), Vec::<u64>::new());
    assert_eq!(p.oldest_change(), None);
}

#[test]
fn clear_empties_the_flush_list() {
    let mut p = pool_of(8);
    for i in (0..8).step_by(2) {
        dirty(&mut p, i, i + 1);
    }
    p.clear();
    assert_eq!(p.len(), 0);
    assert_eq!(p.dirty_count(), 0);
    assert_eq!(flush_list(&p), Vec::<u64>::new());
    assert_eq!(p.oldest_change(), None);
    for i in 8..16 {
        p.insert(page(i));
    }
    assert_eq!(p.len(), 8);
    dirty(&mut p, 9, 100);
    assert_eq!(flush_list(&p), vec![9]);
}
