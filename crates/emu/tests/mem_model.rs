//! Seeded equivalence of the image-plus-overlay [`Mem`] against a
//! reference model: one flat `BTreeMap<u64, u8>` of materialised bytes
//! plus a second map of every loaded byte, which defines the delta.
//!
//! Random `load`/`read`/`read_u8`/`write`/`write_u8` sequences draw
//! their addresses from small windows (so loads overlap each other and
//! writes land on loaded bytes) including windows that straddle
//! `u64::MAX`, under both fill policies. Every read must agree, and at
//! checkpoints so must `entries()`, `len()`, `is_empty()`, `delta()`
//! and `==`.

use hgl_emu::{FillPolicy, Mem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The fill function `FillPolicy::Hash` documents: splitmix64 of the
/// address xor the seed, low byte.
fn hash_fill(addr: u64, seed: u64) -> u8 {
    let mut x = (addr ^ seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) & 0xff) as u8
}

struct Model {
    bytes: BTreeMap<u64, u8>,
    loaded: BTreeMap<u64, u8>,
    fill: FillPolicy,
}

impl Model {
    fn read_u8(&mut self, addr: u64) -> u8 {
        let fill = self.fill;
        *self.bytes.entry(addr).or_insert_with(|| match fill {
            FillPolicy::Zero => 0,
            FillPolicy::Hash(seed) => hash_fill(addr, seed),
        })
    }

    fn read(&mut self, addr: u64, size: u8) -> u64 {
        (0..size).fold(0, |v, i| v | (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i))
    }

    fn write(&mut self, addr: u64, size: u8, v: u64) {
        for i in 0..size {
            self.bytes.insert(addr.wrapping_add(i as u64), (v >> (8 * i)) as u8);
        }
    }

    fn load(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.bytes.insert(a, *b);
            self.loaded.insert(a, *b);
        }
    }

    fn delta(&self) -> Vec<(u64, u8)> {
        self.bytes
            .iter()
            .filter(|(a, v)| self.loaded.get(a) != Some(v))
            .map(|(a, v)| (*a, *v))
            .collect()
    }
}

/// Window bases: low memory, a typical image, the stack, and the top
/// of the address space (windows there wrap to 0). Loads are long
/// enough to cover, split or trim one another.
const BASES: [u64; 4] = [0, 0x40_1000, 0x7fff_fefe_fff0, u64::MAX - 31];

fn addr(rng: &mut SmallRng) -> u64 {
    BASES[rng.gen_range(0..BASES.len())].wrapping_add(rng.gen_range(0..160u64))
}

fn check_whole(m: &Mem, model: &Model, ctx: &str) {
    let entries: Vec<(u64, u8)> = m.entries().collect();
    let expected: Vec<(u64, u8)> = model.bytes.iter().map(|(a, v)| (*a, *v)).collect();
    assert_eq!(entries, expected, "entries() differ {ctx}");
    assert_eq!(m.len(), model.bytes.len(), "len() differs {ctx}");
    assert_eq!(m.is_empty(), model.bytes.is_empty(), "is_empty() differs {ctx}");
    assert_eq!(m.delta().collect::<Vec<_>>(), model.delta(), "delta() differs {ctx}");
    // Equality sees materialised bytes only, not which layer holds them.
    let mut flat = Mem::new(model.fill);
    for (a, v) in &model.bytes {
        flat.write_u8(*a, *v);
    }
    assert!(*m == flat, "== against a write-only copy fails {ctx}");
    assert!(*m == m.clone(), "clone is not equal {ctx}");
}

fn run(seed: u64, fill: FillPolicy, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Mem::new(fill);
    let mut model = Model { bytes: BTreeMap::new(), loaded: BTreeMap::new(), fill };
    for step in 0..ops {
        let ctx = format!("(seed {seed}, fill {fill:?}, step {step})");
        match rng.gen_range(0..10u32) {
            0 | 1 => {
                let a = addr(&mut rng);
                let mut data = vec![0u8; rng.gen_range(0..140usize)];
                rng.fill(&mut data);
                m.load(a, &data);
                model.load(a, &data);
            }
            2 | 3 => {
                let (a, size) = (addr(&mut rng), rng.gen_range(1..=8u8));
                assert_eq!(m.read(a, size), model.read(a, size), "read({a:#x}, {size}) {ctx}");
            }
            4 | 5 => {
                let a = addr(&mut rng);
                assert_eq!(m.read_u8(a), model.read_u8(a), "read_u8({a:#x}) {ctx}");
            }
            6 | 7 => {
                let (a, size, v) = (addr(&mut rng), rng.gen_range(1..=8u8), rng.gen::<u64>());
                m.write(a, size, v);
                model.write(a, size, v);
            }
            8 => {
                // Write a byte back to what it already holds: no change
                // to the delta unless the byte was never materialised.
                let a = addr(&mut rng);
                let v = model.read_u8(a);
                assert_eq!(m.read_u8(a), v, "read_u8({a:#x}) {ctx}");
                m.write_u8(a, v);
                model.write(a, 1, v as u64);
            }
            _ => {
                let (a, v) = (addr(&mut rng), rng.gen::<u8>());
                m.write_u8(a, v);
                model.write(a, 1, v as u64);
            }
        }
        if step % 16 == 0 {
            check_whole(&m, &model, &ctx);
        }
    }
    check_whole(&m, &model, &format!("(seed {seed}, fill {fill:?}, end)"));
}

#[test]
fn image_overlay_memory_matches_flat_model() {
    for seed in 0..100u64 {
        run(seed, FillPolicy::Zero, 400);
        run(seed, FillPolicy::Hash(seed.wrapping_mul(0x2545_f491_4f6c_dd1d)), 400);
    }
}

#[test]
fn empty_memory_matches_model() {
    let m = Mem::new(FillPolicy::Zero);
    let model = Model { bytes: BTreeMap::new(), loaded: BTreeMap::new(), fill: FillPolicy::Zero };
    check_whole(&m, &model, "(empty)");
}
