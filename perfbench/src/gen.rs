//! Seeded input generators. The program under test sees only the
//! archive bytes these produce; each input carries the answer its
//! verdict is checked against.

use flowdroid_bench::{generate_app, AppProfile};
use flowdroid_frontend::App;
use flowdroid_truth::{generate_corpus, TruthApp};

/// What a correct analysis reports for one input.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Exactly this many leaks.
    Count(usize),
    /// Exactly one leak, from the source on `source_line` to the sink
    /// on `sink_line`. With `alias` set the taint reaches the sink only
    /// through a backward alias detour, and the program reports such a
    /// leak's source as unattributed (line 0; see README.md), so 0 is
    /// accepted there as well.
    Chain {
        source_line: u32,
        sink_line: u32,
        alias: bool,
    },
}

/// One generated app: `.rpk` archive bytes plus its ground truth.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from `seed` and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    splitmix(seed ^ splitmix(tag))
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        p.swap(i, (state % (i as u64 + 1)) as usize);
    }
    p
}

/// Apps per cycle of the `market-scan` stream.
pub const MARKET_CYCLE: u64 = 9;
/// RQ3 apps per cycle, benign-like first: two benign-like to four
/// malware-like, the paper's 500 Play apps to about 1,000 VirusShare
/// samples. The other three apps of a cycle are ground-truth scenarios.
const BENIGN_PER_CYCLE: u64 = 2;
const RQ3_PER_CYCLE: u64 = 6;
const TRUTH_PER_CYCLE: u64 = MARKET_CYCLE - RQ3_PER_CYCLE;

/// The `market-scan` stream: per cycle of [`MARKET_CYCLE`] apps, RQ3
/// benign-like and malware-like apps in the paper's 1:2 proportion and
/// three ground-truth scenario apps, all distinct, in a fixed
/// interleaving.
pub struct MarketGen {
    seed: u64,
    truth: Option<(u64, Vec<TruthApp>)>,
}

impl MarketGen {
    pub fn new(seed: u64) -> MarketGen {
        MarketGen { seed, truth: None }
    }

    /// App number `i` of the stream.
    pub fn input(&mut self, i: u64) -> Input {
        let slot = i % MARKET_CYCLE;
        if slot < RQ3_PER_CYCLE {
            let profile = if slot < BENIGN_PER_CYCLE {
                AppProfile::BenignLike
            } else {
                AppProfile::MalwareLike
            };
            let g = generate_app(profile, i as usize, mix(self.seed, 1));
            let bytes = App::bundle(&g.manifest, &[], &g.code).to_bytes();
            return Input {
                name: g.package,
                bytes,
                expect: Expect::Count(g.seeded_leaks),
            };
        }
        // Each corpus batch holds one app per scenario (ten, the ICC
        // category yielding a pair).
        let t = (i / MARKET_CYCLE) * TRUTH_PER_CYCLE + (slot - RQ3_PER_CYCLE);
        let (batch, within) = (t / 10, (t % 10) as usize);
        if self.truth.as_ref().map(|(b, _)| *b) != Some(batch) {
            let apps = generate_corpus(mix(self.seed, 1000 + batch), 1);
            assert_eq!(apps.len(), 10, "one truth batch holds ten apps");
            self.truth = Some((batch, apps));
        }
        let app = &self.truth.as_ref().expect("batch generated above").1[within];
        Input {
            name: format!("{}#{batch}", app.name),
            bytes: app.rpk_bytes(),
            expect: Expect::Count(app.expected_reported),
        }
    }
}

/// Sizes of the `deep-flow` string chains (`stress/K` shape).
pub const STRESS_K: &[usize] = &[40, 80, 120, 160, 200, 240, 280, 320];
/// Sizes of the `deep-flow` heap chains (aliases made early, written late).
pub const HEAP_K: &[usize] = &[8, 16, 24, 32, 40, 48, 56];
/// Programs per cycle of the `deep-flow` stream: every size once. An odd
/// count keeps the median and the p90 inside a size class rather than
/// on the boundary between two.
pub const DEEP_CYCLE: u64 = (STRESS_K.len() + HEAP_K.len()) as u64;

/// A `jasm` writer that tracks the 1-based line of the next line.
struct Code {
    text: String,
    line: u32,
}

impl Code {
    fn new() -> Code {
        Code {
            text: String::new(),
            line: 1,
        }
    }

    /// Appends one line and returns its line number.
    fn line(&mut self, s: &str) -> u32 {
        self.text.push_str(s);
        self.text.push('\n');
        self.line += 1;
        self.line - 1
    }
}

const GET_IMEI: [&str; 2] = [
    "    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>(\"phone\")",
    "    tm = (android.telephony.TelephonyManager) o",
];

fn source_call(dst: &str) -> String {
    format!("    {dst} = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()")
}

fn sink_call(arg: &str) -> String {
    format!("    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>(\"deep\", {arg})")
}

fn manifest(package: &str) -> String {
    format!(
        "<manifest package=\"{package}\">\n  <application>\n    <activity android:name=\".Main\">\n      <intent-filter><action android:name=\"android.intent.action.MAIN\"/></intent-filter>\n    </activity>\n  </application>\n</manifest>"
    )
}

/// Program number `j` of the `deep-flow` stream: each cycle of
/// [`DEEP_CYCLE`] programs holds every size class once, in a seeded
/// order, plus a seeded jitter of 0..3, so every seed draws the same
/// spread of method sizes.
pub fn deep_input(seed: u64, j: u64) -> Input {
    let order = permutation(DEEP_CYCLE as usize, mix(seed, j / DEEP_CYCLE));
    let class = order[(j % DEEP_CYCLE) as usize];
    let heap = class >= STRESS_K.len();
    let size = if heap {
        HEAP_K[class - STRESS_K.len()]
    } else {
        STRESS_K[class]
    };
    let k = size + (mix(seed, j + (1 << 40)) % 4) as usize;
    let package = format!("deep.{}{j}", if heap { "h" } else { "s" });
    let (code, source_line, sink_line) = if heap {
        heap_chain(&package, k)
    } else {
        string_chain(&package, k)
    };
    let bytes = App::bundle(&manifest(&package), &[], &code).to_bytes();
    Input {
        name: format!("{package}/k{k}"),
        bytes,
        expect: Expect::Chain {
            source_line,
            sink_line,
            alias: heap,
        },
    }
}

fn activity_head(c: &mut Code, package: &str) {
    c.line(&format!(
        "class {package}.Main extends android.app.Activity {{"
    ));
    c.line("  method onCreate(b: android.os.Bundle) -> void {");
    c.line("    let o: java.lang.Object");
    c.line("    let tm: android.telephony.TelephonyManager");
}

/// The `stress/K` shape in an activity: `v{i} = v{i-1} + v{i-1}` from
/// one source to one sink, so forward propagations grow as `K²/2`.
fn string_chain(package: &str, k: usize) -> (String, u32, u32) {
    let mut c = Code::new();
    activity_head(&mut c, package);
    for i in 0..k {
        c.line(&format!("    let v{i}: java.lang.String"));
    }
    for l in GET_IMEI {
        c.line(l);
    }
    let source = c.line(&source_call("v0"));
    for i in 1..k {
        c.line(&format!("    v{i} = v{} + v{}", i - 1, i - 1));
    }
    let sink = c.line(&sink_call(&format!("v{}", k - 1)));
    c.line("    return");
    c.line("  }");
    c.line("}");
    (c.text, source, sink)
}

/// A heap chain: `K` boxes each get an alias up front; the taint then
/// hops box to box through field writes at the end of the method, so
/// every write sends the backward alias solver up the whole method.
fn heap_chain(package: &str, k: usize) -> (String, u32, u32) {
    let mut c = Code::new();
    c.line(&format!("class {package}.Box extends java.lang.Object {{"));
    c.line("  field f: java.lang.String");
    c.line("}");
    activity_head(&mut c, package);
    let bx = format!("{package}.Box");
    for i in 0..k {
        c.line(&format!("    let o{i}: {bx}"));
        c.line(&format!("    let a{i}: {bx}"));
        c.line(&format!("    let t{i}: java.lang.String"));
    }
    c.line("    let x: java.lang.String");
    for i in 0..k {
        c.line(&format!("    o{i} = new {bx}"));
        c.line(&format!("    a{i} = o{i}"));
    }
    for l in GET_IMEI {
        c.line(l);
    }
    let source = c.line(&source_call("t0"));
    c.line("    o0.f = t0");
    for i in 1..k {
        c.line(&format!("    t{i} = a{}.f", i - 1));
        c.line(&format!("    o{i}.f = t{i}"));
    }
    c.line(&format!("    x = a{}.f", k - 1));
    let sink = c.line(&sink_call("x"));
    c.line("    return");
    c.line("  }");
    c.line("}");
    (c.text, source, sink)
}

/// Fingerprint of the first `n` inputs a generator yields.
fn digest(n: u64, mut input: impl FnMut(u64) -> Input) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        let inp = input(i);
        out.extend_from_slice(format!("{}|{:?}|", inp.name, inp.expect).as_bytes());
        out.extend_from_slice(&inp.bytes);
    }
    out
}

/// Seed self-test: the same seed yields byte-identical inputs and a
/// different seed yields different ones.
pub fn seed_self_test(workload: &str, seed: u64) -> Result<(), String> {
    let run = |s: u64| -> Vec<u8> {
        match workload {
            "deep-flow" => digest(8, |j| deep_input(s, j)),
            _ => {
                let mut g = MarketGen::new(s);
                digest(30, |i| g.input(i))
            }
        }
    };
    let (a, b, c) = (run(seed), run(seed), run(seed.wrapping_add(1)));
    if a != b {
        return Err(format!(
            "{workload}: seed {seed} generated different inputs twice"
        ));
    }
    if a == c {
        return Err(format!(
            "{workload}: seeds {seed} and {} generated the same inputs",
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}
