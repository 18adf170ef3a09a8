//! Golden byte-identity fingerprints of the compressor's output.
//!
//! Codeword selection is a pure function of the input program and the
//! configuration, so every change to the compressor's internals (speed
//! work in particular) must reproduce the exact same
//! [`CompressedProgram`]: compressed text bytes, DISE productions or
//! dedicated dictionary, and [`CompressionStats`]. Each is pinned here as
//! an FNV-1a fingerprint over the benchmark programs `perfbench` sets up
//! (its `func_expand` dynamic-instruction budget).
//!
//! Debug builds check three small benchmarks; the all-benchmark,
//! two-seed matrix runs in release builds only (minutes-slow
//! unoptimized). On a mismatch the failure message lists every cell's
//! current fingerprints in table syntax — a deliberate change to the
//! compressor's output regenerates the table from it.

use dise_acf::compress::{CompressedProgram, CompressionConfig, Compressor, SelectAlgo};
use dise_workloads::{Benchmark, WorkloadConfig};

/// `perfbench`'s `func_expand` program budget.
const DYN_INSTS: u64 = 350_000;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// (text, dictionary, stats) fingerprints of one compressed program. The
/// dictionary side covers whichever expander the configuration builds:
/// the aware production set or the dedicated dictionary's entries.
fn fingerprint(c: &CompressedProgram) -> (u64, u64, u64) {
    let mut text = c.program.text.clone();
    text.extend_from_slice(&c.program.entry.to_le_bytes());
    let mut dict = String::new();
    if let Some(set) = &c.productions {
        dict.push_str(&format!("{set:?}"));
    }
    if let Some(d) = &c.dictionary {
        for ix in 0..d.len() {
            dict.push_str(&format!("{:?};", d.get(ix as u16).expect("entry in range")));
        }
    }
    (
        fnv1a(&text),
        fnv1a(dict.as_bytes()),
        fnv1a(format!("{:?}", c.stats).as_bytes()),
    )
}

/// The pinned configurations: DISE's full system under both selection
/// algorithms, and the dedicated-decompressor baseline.
fn config(name: &str) -> CompressionConfig {
    match name {
        "dise_full/v2" => CompressionConfig::dise_full().with_select(SelectAlgo::V2),
        "dise_full/v1" => CompressionConfig::dise_full().with_select(SelectAlgo::V1),
        "dedicated/v2" => CompressionConfig::dedicated().with_select(SelectAlgo::V2),
        _ => unreachable!("unknown golden configuration {name}"),
    }
}

const CONFIGS: [&str; 3] = ["dise_full/v2", "dise_full/v1", "dedicated/v2"];

/// (benchmark, seed, configuration, text, dictionary, stats).
type Golden = (&'static str, u64, &'static str, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("bzip2", 0, "dise_full/v2", 0x5547bbbf7faf494c, 0x4245f7aa7fce47ac, 0x0d092c93bd1c4d25),
    ("bzip2", 0, "dise_full/v1", 0x77f94898952fa5f4, 0xea865f6f20862173, 0x48ffde07585b0b22),
    ("bzip2", 0, "dedicated/v2", 0x9912cdfbe5e754ce, 0x5f97a7ca909dab88, 0x4fa14c95091350e2),
    ("bzip2", 5, "dise_full/v2", 0x3711f75321fda8c9, 0x1465f3d8bd19e02c, 0x848a578fcd88fada),
    ("bzip2", 5, "dise_full/v1", 0xd8abb8755060c683, 0x4004295ede78f7e3, 0xa81c16194fa72a70),
    ("bzip2", 5, "dedicated/v2", 0xa25d349e2a56530b, 0x4cd79191a4402424, 0x9231d5ae0d6a62cd),
    ("crafty", 0, "dise_full/v2", 0x9dbeba4882fba678, 0xa0bade6637bf50e5, 0x1cee0868c2677162),
    ("crafty", 0, "dise_full/v1", 0xadf2a810c3df63e4, 0x04b8f4be17306733, 0xa6eb683c1372eb9c),
    ("crafty", 0, "dedicated/v2", 0x68a905a003e357d7, 0xf64fd8b645aec740, 0x76389ea385eeaad3),
    ("crafty", 5, "dise_full/v2", 0xa442198276f1bd88, 0x23ed86bca94d3d54, 0xe5b06ab7d7433825),
    ("crafty", 5, "dise_full/v1", 0x6d821fef8aff76a0, 0x2250b7eea02db8ba, 0x57707c421c31b9b9),
    ("crafty", 5, "dedicated/v2", 0x46147e541b165f10, 0xbbd1380a2d88fdce, 0x5c52fdc7967baffe),
    ("eon", 0, "dise_full/v2", 0x79745cb3d8278dca, 0xfc8e72b5860dcf3d, 0x0e3c827f04d2ff65),
    ("eon", 0, "dise_full/v1", 0x3546d384bdade215, 0x1ce4b1e4bafe4952, 0x3dddec8b762c0bfa),
    ("eon", 0, "dedicated/v2", 0x0ad43c457982fdf1, 0xc86a5eb3aae5e5ed, 0xd5141d725ed143e9),
    ("eon", 5, "dise_full/v2", 0xb1bbf9d9cb0a0589, 0xb9cc7b77b7bafa2b, 0x22f1dbf12d293713),
    ("eon", 5, "dise_full/v1", 0x3033bc6c0d2fed87, 0xc5f6c6d6955be107, 0x120992da3a50cf02),
    ("eon", 5, "dedicated/v2", 0x501314d6ae4c1c99, 0xe47a8aa858c06a5d, 0x8afae9fdd1ec0db1),
    ("gap", 0, "dise_full/v2", 0x0cbf4a82461339f7, 0x88614fab470c1b3d, 0xd5d7396c0b4a152a),
    ("gap", 0, "dise_full/v1", 0x2797c08ad0e8fa42, 0x7f44d4befd2a1ae1, 0xbf0b7c7088974bcf),
    ("gap", 0, "dedicated/v2", 0x048a7b968a6123de, 0xd076f47afcdf3784, 0xbeaeee68c5060284),
    ("gap", 5, "dise_full/v2", 0x1cd3fc9cfecd679b, 0x521ca314dea8a7d6, 0xf7dff6f3bcf98465),
    ("gap", 5, "dise_full/v1", 0xd59bd2c0609fc319, 0x7e984033523a70bc, 0x0f936b01d7c7ae68),
    ("gap", 5, "dedicated/v2", 0xfb53e35ea50d179e, 0x232d30627cb5e30c, 0x286c39178ef38a67),
    ("gcc", 0, "dise_full/v2", 0x2db4f2e44315a50b, 0x3698481cb99c7fc6, 0x77ace4f1a26920e8),
    ("gcc", 0, "dise_full/v1", 0xde2537ac46b204bd, 0x331c6941d2395577, 0x36e28947abd10412),
    ("gcc", 0, "dedicated/v2", 0x769dfbf3adb752d8, 0x498f1b9ee956bc3a, 0x3853b01bffc8850d),
    ("gcc", 5, "dise_full/v2", 0x3cd911bb2cab5eca, 0x6d411597012964e0, 0x26d14635dcd197ef),
    ("gcc", 5, "dise_full/v1", 0xa31b94570908f2b4, 0x54044c89400dd5e7, 0x22b09a31510497c4),
    ("gcc", 5, "dedicated/v2", 0x6fdffce679c82a96, 0x256790db53c46981, 0xe8032ec1e2e97905),
    ("gzip", 0, "dise_full/v2", 0x7cc2610673e167a4, 0xa68737cbc6f94428, 0x75763a0e2e5ff7ce),
    ("gzip", 0, "dise_full/v1", 0xb203b277509ad231, 0x58b1fec5a7dfd0c4, 0xab66afbd4827e4c1),
    ("gzip", 0, "dedicated/v2", 0xe28176ab36adbf92, 0xc8cee761cf807650, 0x1587d8aa713a85e9),
    ("gzip", 5, "dise_full/v2", 0x1a587d57540f1115, 0x266ef697112d3a8c, 0xb3bcbae41ee6a3ef),
    ("gzip", 5, "dise_full/v1", 0x4e0627974d557239, 0x28b649eda1f2a7c5, 0xa4ac388ad6f1193c),
    ("gzip", 5, "dedicated/v2", 0x30f26b4600cba2f0, 0xa1a1788d3acccfa4, 0x2bc0b3f24f0a6977),
    ("mcf", 0, "dise_full/v2", 0xaedf4bb36b891231, 0x78fa5cd8da459224, 0xd0df365a8e1d75fb),
    ("mcf", 0, "dise_full/v1", 0x9e36ec331119afac, 0xc2cb2bb62f007a08, 0x81ee5ee5019de0e5),
    ("mcf", 0, "dedicated/v2", 0x869cab9991c7663a, 0x8e652aefaef7c37e, 0xafaf7144ef0aa693),
    ("mcf", 5, "dise_full/v2", 0x72840d3254571c80, 0x686cf4d01a563c58, 0xf4a888a875aa9915),
    ("mcf", 5, "dise_full/v1", 0x91fe3a6486ae10b6, 0x45e9383396737f6a, 0xb2d9ba7959db5b04),
    ("mcf", 5, "dedicated/v2", 0x017e3cfcb02aadba, 0x06b1c581281b9c68, 0x083a25fd92b424d5),
    ("parser", 0, "dise_full/v2", 0xfc7d855c02b53b31, 0xa6783feb4487a005, 0x42a78bd900627a48),
    ("parser", 0, "dise_full/v1", 0xfc5daf0858d51e98, 0x471ae87916e99025, 0xa7dca0c5fe0e2571),
    ("parser", 0, "dedicated/v2", 0x937889db58af8e84, 0x1c06b083ab3c9d7f, 0x82df6ae16bf98f88),
    ("parser", 5, "dise_full/v2", 0x5ae8a522f4f6b96d, 0x1ea0caf982ca5bbc, 0x6a2fd0a0d8ebf0f0),
    ("parser", 5, "dise_full/v1", 0x01b2b87639332110, 0xfa285c46fcd6f9c1, 0x2064da6948e779f9),
    ("parser", 5, "dedicated/v2", 0x80e4745975b4742e, 0x47f07de3739e7285, 0x89ba022eb85b8eef),
    ("perlbmk", 0, "dise_full/v2", 0xddd6c776254e8be0, 0x74f633fd281dd3c9, 0xba88e085a618b005),
    ("perlbmk", 0, "dise_full/v1", 0x0f1f14f05ccf94e2, 0x4771e1d8bbbbf1e5, 0xc8a9d02357cca6cb),
    ("perlbmk", 0, "dedicated/v2", 0x216d2d6876c3af2b, 0xfdc029c5f275f259, 0xc5347db4c06e89be),
    ("perlbmk", 5, "dise_full/v2", 0x4627d62802c81b21, 0x7e82493927fa7c49, 0xaed820825a032aa1),
    ("perlbmk", 5, "dise_full/v1", 0x887b066a1e46305f, 0x32d9524a79cd9f75, 0x921e60aa45d2dd80),
    ("perlbmk", 5, "dedicated/v2", 0x76de3389af597ace, 0xbca8e2d4f8e69ab8, 0x10aec82e4f0542da),
    ("twolf", 0, "dise_full/v2", 0xd72bc16c9ee76812, 0xd49798151f35f898, 0x75475c42faf3bea0),
    ("twolf", 0, "dise_full/v1", 0xa8e00236a6678922, 0xf51a3d0cea5a4993, 0x18e7130f4764fef2),
    ("twolf", 0, "dedicated/v2", 0x9726738a242908a3, 0x09d2f501c35fd064, 0x2c5528eba7dcdfe3),
    ("twolf", 5, "dise_full/v2", 0x3b4fe06c88a7b0d7, 0x06a1b2a2e042014a, 0xe6e8c220aa638972),
    ("twolf", 5, "dise_full/v1", 0x3f35925a1686f05a, 0xb3f75deed1d0d4bf, 0x7e5beec5c89d6539),
    ("twolf", 5, "dedicated/v2", 0xda63e1c1aa4fd4b0, 0x11e3ba504d3018f0, 0xd6194487cc821fad),
    ("vortex", 0, "dise_full/v2", 0xaf8ffec351a3fcdf, 0x71cf2d099a5d7ee9, 0x0ef2ed2997c111bc),
    ("vortex", 0, "dise_full/v1", 0x4337275c348ef9f8, 0x30c0f6adc3ad6324, 0x8965f044646e1b8a),
    ("vortex", 0, "dedicated/v2", 0xa98a1e254f418440, 0x2f509dfec7f0f490, 0x3d6dac0482842234),
    ("vortex", 5, "dise_full/v2", 0x9ca5bcf34ff33d83, 0xc28294299db2ce33, 0x97bbcc966fbb3053),
    ("vortex", 5, "dise_full/v1", 0xf4248fd3a9b18a49, 0x2f75a7cf7989a5d8, 0xad162e594957af8a),
    ("vortex", 5, "dedicated/v2", 0x4fb02e738b16aab9, 0x44b60abc68b08993, 0x0f65104eb9719413),
    ("vpr", 0, "dise_full/v2", 0xf442ff8435bcd8d6, 0xa40945965ae1747b, 0x53f8c1c55ca9f74d),
    ("vpr", 0, "dise_full/v1", 0x0b815ae064ecbe44, 0x604036e0984a66be, 0x23cde938242b4b24),
    ("vpr", 0, "dedicated/v2", 0x02aa4d3ffbfffea5, 0x98b9766633e8466d, 0x50ada08536b6ed5b),
    ("vpr", 5, "dise_full/v2", 0xfe932c41458ee492, 0x7bb26824a017aa68, 0x2f3e8c631084717a),
    ("vpr", 5, "dise_full/v1", 0x334ba44d132a6728, 0xff5718d64975fd08, 0xc060d1e041bd1053),
    ("vpr", 5, "dedicated/v2", 0x05c59456738ab3c5, 0xba9e667912ff79eb, 0x68a757d86bbbf77e),
];

/// Compresses every (benchmark, seed, configuration) cell and checks it
/// against [`GOLDEN`], reporting all mismatches at once.
fn check(benches: &[Benchmark], seeds: &[u64]) {
    let mut current = Vec::new();
    let mut failed = 0;
    for &bench in benches {
        for &seed in seeds {
            let program = bench.build(&WorkloadConfig {
                dyn_insts: DYN_INSTS,
                seed,
            });
            for name in CONFIGS {
                let c = Compressor::new(config(name))
                    .compress(&program)
                    .expect("compression");
                let (text, dict, stats) = fingerprint(&c);
                let got = (bench.name(), seed, name, text, dict, stats);
                let want = GOLDEN
                    .iter()
                    .find(|g| (g.0, g.1, g.2) == (got.0, got.1, got.2));
                if want != Some(&got) {
                    failed += 1;
                }
                current.push(format!(
                    "    ({:?}, {seed}, {name:?}, {text:#018x}, {dict:#018x}, {stats:#018x}),",
                    bench.name()
                ));
            }
        }
    }
    assert!(
        failed == 0,
        "{failed} compressed program(s) diverged from the golden fingerprints; \
         current values:\n{}",
        current.join("\n")
    );
}

#[test]
fn small_benchmarks_match_golden_fingerprints() {
    check(&[Benchmark::Mcf, Benchmark::Bzip2, Benchmark::Parser], &[0]);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_benchmark_matches_golden_fingerprints() {
    check(&Benchmark::ALL, &[0, 5]);
}
