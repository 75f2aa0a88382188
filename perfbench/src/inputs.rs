//! Seeded workload inputs. The seed decides only what the simulator is
//! asked to do (which cells, in which order); the simulator receives
//! the generated inputs and never the seed.

use grp_bench::tracecache::cc_fingerprint;
use grp_core::Scheme;

/// SplitMix64: a small, fixed generator, so a seed's inputs never
/// change when the simulator's own RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One requested simulation: a kernel under a scheme.
pub type Cell = (&'static str, Scheme);

/// Registry kernel names, in the paper's Table 3 order.
pub fn kernels() -> Vec<&'static str> {
    grp_workloads::all().iter().map(|w| w.name).collect()
}

/// `paper-grid`: every kernel × every scheme, in seeded submission
/// order (the scheduler still deals largest-first; the seed decides
/// ties).
pub fn grid(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = kernels()
        .into_iter()
        .flat_map(|k| Scheme::ALL.map(|s| (k, s)))
        .collect();
    Rng::new(seed).shuffle(&mut cells);
    cells
}

/// Requests in one `serve-warm` stream.
pub const STREAM_LEN: usize = 120;

/// `serve-warm`: `n` requests, kernels Zipf-skewed (exponent 1, ranked
/// in registry order) and schemes uniform over the twelve.
///
/// Each kernel's request count is its Zipf share of `n` rounded by
/// largest remainder, so every seed asks for the same amount of work
/// per kernel; a kernel's schemes come from seeded permutations of all
/// twelve, and the whole stream is then shuffled.
pub fn stream(seed: u64, n: usize) -> Vec<Cell> {
    let ks = kernels();
    let weights: Vec<f64> = (1..=ks.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ks.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    for (k, &c) in ks.iter().zip(&counts) {
        let mut pool: Vec<Scheme> = Vec::new();
        while pool.len() < c {
            let mut round = Scheme::ALL.to_vec();
            rng.shuffle(&mut round);
            pool.extend(round);
        }
        out.extend(pool[..c].iter().map(|&s| (*k, s)));
    }
    rng.shuffle(&mut out);
    out
}

/// One cell per trace-cache entry that `cells` touch, in first-appearance
/// order. Schemes share an entry when they derive the same hints (`none`,
/// `stride`, `SRP` and the ideal caches all replay the unhinted trace).
pub fn cache_fill(cells: &[Cell]) -> Vec<Cell> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for &(k, s) in cells {
        let entry = (k, cc_fingerprint(s.compiler_config().as_ref()));
        if !seen.contains(&entry) {
            seen.push(entry);
            out.push((k, s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(grid(1), grid(1));
        assert_ne!(grid(1), grid(2));
        assert_eq!(stream(1, STREAM_LEN), stream(1, STREAM_LEN));
        assert_ne!(stream(1, STREAM_LEN), stream(2, STREAM_LEN));
    }

    #[test]
    fn grid_covers_every_cell_once() {
        let g = grid(7);
        assert_eq!(g.len(), 18 * 12);
        let mut sorted: Vec<String> = g.iter().map(|(k, s)| format!("{k}/{s}")).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.len());
    }

    #[test]
    fn stream_is_zipf_by_kernel_and_spreads_schemes() {
        let s = stream(3, STREAM_LEN);
        assert_eq!(s.len(), STREAM_LEN);
        let count = |k: &str| s.iter().filter(|c| c.0 == k).count();
        let ks = kernels();
        // Rank 1 gets about 120 / H(18) ≈ 34 requests; the tail ≥ 1.
        assert_eq!(count(ks[0]), 34);
        assert!(count(ks[0]) > count(ks[1]) && count(ks[1]) > count(ks[17]));
        assert!(ks.iter().all(|k| count(k) >= 1));
        // Rank 1 cycles through every scheme at least twice.
        for scheme in Scheme::ALL {
            assert!(s.iter().filter(|c| c.0 == ks[0] && c.1 == scheme).count() >= 2);
        }
        // Cache fill: one cell per (kernel, hint configuration).
        let fill = cache_fill(&s);
        assert!(fill.len() < s.len());
        assert!(
            fill.iter().filter(|c| c.0 == ks[0]).count() == 6,
            "rank 1 touches all six entries"
        );
        // The per-kernel work is the same for every seed.
        let t = stream(4, STREAM_LEN);
        assert!(ks
            .iter()
            .all(|k| t.iter().filter(|c| c.0 == *k).count() == count(k)));
    }
}
