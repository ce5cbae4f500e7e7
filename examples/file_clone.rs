//! Zero-copy file cloning through the file system's SHARE ioctl — the
//! "file copy operations almost without copying data" use case from the
//! paper's contribution list. `Vfs::clone_file` creates and `fallocate`s the
//! copy, then remaps every page onto the source's in one SHARE command;
//! mini-SQLite's `clone_db` runs the same call.
//!
//! Run with: `cargo run --example file_clone`

use share_core::{BlockDevice, Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};

fn main() {
    let dev = Ftl::new(FtlConfig::for_capacity(64 << 20, 0.2));
    let mut fs = Vfs::format(dev, VfsOptions::default()).expect("format");

    // A 16 MiB source file.
    let src = fs.create("dataset.bin").unwrap();
    let pages = 4_096u64;
    for i in 0..pages {
        fs.write_page(src, i, &vec![(i % 251) as u8; fs.page_size()]).unwrap();
    }
    fs.fsync(src).unwrap();

    // --- classic copy --------------------------------------------------------
    let before = fs.device().stats();
    let copy = fs.create("copy-classic.bin").unwrap();
    let mut buf = vec![0u8; fs.page_size()];
    for i in 0..pages {
        fs.read_page(src, i, &mut buf).unwrap();
        fs.write_page(copy, i, &buf).unwrap();
    }
    fs.fsync(copy).unwrap();
    let classic = fs.device().stats().delta_since(&before);

    // --- SHARE clone ----------------------------------------------------------
    let before = fs.device().stats();
    let clone = fs.clone_file(src, pages, "copy-share.bin").unwrap();
    fs.fsync(clone).unwrap();
    let shared = fs.device().stats().delta_since(&before);

    // Both copies read identically...
    let mut a = vec![0u8; fs.page_size()];
    let mut b = vec![0u8; fs.page_size()];
    for i in (0..pages).step_by(509) {
        fs.read_page(copy, i, &mut a).unwrap();
        fs.read_page(clone, i, &mut b).unwrap();
        assert_eq!(a, b);
    }
    // ...and the clone stays intact when the source changes (copy-on-write
    // at the FTL level: the source's new version goes to a fresh page).
    fs.write_page(src, 0, &vec![0xFFu8; fs.page_size()]).unwrap();
    fs.read_page(clone, 0, &mut b).unwrap();
    assert_eq!(b[0], 0, "clone must keep the old content");

    println!("cloning a {} MiB file:", pages * 4096 / (1 << 20));
    println!("  classic copy: {} page writes, {} page reads", classic.host_writes, classic.host_reads);
    println!(
        "  SHARE clone:  {} page writes, {} share commands ({} pages remapped)",
        shared.host_writes, shared.share_commands, shared.shared_pages
    );
    println!("the clone is copy-on-write: updating the source leaves it untouched.");
}
