//! Cross-transport conformance suite.
//!
//! Everything above the `Transport` trait — Request handles, tag matching,
//! collectives, fault injection, timeouts, the abort protocol, traffic
//! accounting — must behave byte-identically whether frames move over
//! in-process channels or real TCP sockets. These tests re-run the overlap
//! bit-identity battery over each transport, assert bit-for-bit agreement
//! *across* transports, and drive the `ranks` launcher to prove the same
//! guarantees over genuinely separate OS processes.
//!
//! Socket-backed tests are `#[ignore]`d so plain `cargo test -q` stays
//! fast; the transport-tcp CI job runs them with `-- --ignored`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use weipipe::{
    run_distributed, run_distributed_per_rank, run_single, CommConfig, CommError, FaultPlan,
    Strategy, TrainSetup, TransportKind,
};
use wp_comm::tcp::DATA_HEADER_LEN;
use wp_comm::World;
use wp_metrics::{Counter, MetricsRegistry};
use wp_tensor::DType;

/// The overlap-equivalence battery over one transport: the overlapped and
/// blocking weight rings compute the exact same floats, both match the
/// single-process reference within reduction tolerance, and overlap does
/// not change the bytes on the wire.
fn conformance_battery(kind: TransportKind, p: usize, layers: usize, n: usize) {
    for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
        let setup = TrainSetup::tiny(layers, n).with_transport(kind);
        let overlapped = run_distributed(strat, p, &setup.clone().with_overlap(true))
            .unwrap_or_else(|e| panic!("{strat:?} {kind:?} P={p} overlapped: {e:?}"));
        let blocking = run_distributed(strat, p, &setup.clone().with_overlap(false))
            .unwrap_or_else(|e| panic!("{strat:?} {kind:?} P={p} blocking: {e:?}"));
        assert!(
            overlapped.bit_identical(&blocking),
            "{strat:?} {kind:?} P={p}: overlap changed the losses or weights"
        );
        assert_eq!(
            overlapped.bytes_sent, blocking.bytes_sent,
            "{strat:?} {kind:?} P={p}: overlap changed the traffic volume"
        );

        let reference = run_single(&setup);
        let dl = overlapped.max_loss_diff(&reference);
        let dp = overlapped.max_param_diff(&reference);
        assert!(dl < 2e-4, "{strat:?} {kind:?} P={p}: loss diff {dl}");
        assert!(dp < 2e-3, "{strat:?} {kind:?} P={p}: param diff {dp}");
    }
}

/// The headline guarantee: the same setup trains to bit-identical results
/// with bit-identical traffic volume on every transport — with f32 frames,
/// which the channel mesh moves as they are, and with f16 frames, which
/// cross a socket packed.
fn cross_transport_identical(p: usize, layers: usize, n: usize) {
    for (strat, wire) in [
        (Strategy::WeiPipeNaive, DType::F32),
        (Strategy::WeiPipeInterleave, DType::F32),
        (Strategy::WeiPipeInterleave, DType::F16),
    ] {
        let mut setup = TrainSetup::tiny(layers, n);
        setup.wire = wire;
        let inproc = run_distributed(
            strat,
            p,
            &setup.clone().with_transport(TransportKind::InProcess),
        )
        .unwrap_or_else(|e| panic!("{strat:?} {wire} P={p} in-process: {e:?}"));
        let tcp = run_distributed(
            strat,
            p,
            &setup.clone().with_transport(TransportKind::TcpLocalhost),
        )
        .unwrap_or_else(|e| panic!("{strat:?} {wire} P={p} tcp: {e:?}"));
        assert!(
            inproc.bit_identical(&tcp),
            "{strat:?} {wire} P={p}: in-process and tcp disagree on losses or weights"
        );
        assert_eq!(
            inproc.bytes_sent, tcp.bytes_sent,
            "{strat:?} {wire} P={p}: transports moved different byte volumes"
        );
    }
}

#[test]
fn inprocess_battery_small() {
    conformance_battery(TransportKind::InProcess, 2, 2, 4);
}

#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn tcp_battery_small() {
    conformance_battery(TransportKind::TcpLocalhost, 2, 2, 4);
}

#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn tcp_battery_wide() {
    conformance_battery(TransportKind::TcpLocalhost, 4, 4, 8);
}

#[test]
fn tcp_matches_inprocess_bit_for_bit_small() {
    // The one socket test in tier-1: a single tiny P=2 world over localhost
    // TCP proving the trait seam end to end (everything heavier is tagged).
    cross_transport_identical(2, 2, 4);
}

#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn tcp_matches_inprocess_bit_for_bit_wide() {
    cross_transport_identical(4, 4, 8);
}

/// Bytes on the socket == bytes accounted: over a seeded exchange of ragged
/// messages in all three wire dtypes plus one f16 all-reduce, what every
/// rank's sends put on their sockets, and what its reader threads took off
/// them, is exactly the wire bytes the traffic meter charged plus one fixed
/// header per frame. (A frame metered at two bytes per element and shipped
/// at four fails this by 2×.)
#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn tcp_socket_bytes_equal_metered_bytes_plus_headers() {
    const P: usize = 3;
    const ROUNDS: u64 = 24;
    /// Message `i`'s element count and wire dtype (splitmix64 of a seed).
    fn shape(i: u64) -> (usize, DType) {
        let mut z = (0x5eed + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let wire = [DType::F32, DType::F16, DType::BF16][(z >> 40) as usize % 3];
        ((z % 97) as usize, wire)
    }

    let registry = MetricsRegistry::new(P);
    let (_, meter) = World::builder(P)
        .transport(TransportKind::TcpLocalhost)
        .metrics(registry.clone())
        .run(|mut c| {
            for i in 0..ROUNDS {
                let (n, wire) = shape(i);
                let buf = vec![c.rank() as f32 + i as f32 * 0.37; n];
                c.send(c.next_rank(), i, &buf, wire).unwrap();
                assert_eq!(c.recv(c.prev_rank(), i).unwrap().len(), n);
            }
            let mut grad = vec![c.rank() as f32; 41];
            c.all_reduce_sum(&mut grad, DType::F16).unwrap();
        });

    let p2p_wire_bytes: u64 = (0..ROUNDS)
        .map(|i| {
            let (n, wire) = shape(i);
            (n * wire.size_bytes()) as u64
        })
        .sum();
    let header = DATA_HEADER_LEN as u64;
    // The run has returned, so every endpoint is torn down and its socket
    // threads joined: the counters are final.
    let snap = registry.snapshot();
    for (rank, slots) in snap.ranks.iter().enumerate() {
        let t = meter.rank(rank);
        assert_eq!(t.p2p_bytes, p2p_wire_bytes, "rank {rank}: Σ wire bytes");
        assert!(t.collective_bytes > 0, "rank {rank}: the all-reduce ran");
        let frames_sent = slots.counter(Counter::TcpDataFramesSent);
        let frames_recv = slots.counter(Counter::TcpDataFramesRecv);
        assert_eq!(frames_sent, t.p2p_msgs + t.collective_msgs, "rank {rank}");
        assert_eq!(frames_recv, t.recv_msgs, "rank {rank}");
        assert_eq!(
            slots.counter(Counter::TcpDataBytesSent),
            t.p2p_bytes + t.collective_bytes + frames_sent * header,
            "rank {rank}: bytes written to sockets"
        );
        assert_eq!(
            slots.counter(Counter::TcpDataBytesRecv),
            t.recv_bytes + frames_recv * header,
            "rank {rank}: bytes read from sockets"
        );
    }
}

/// Chaos parity at the training level: a dead-rank plan over sockets must
/// fail every rank typed — PeerDead or the abort wrapper naming the victim
/// — within a hard deadline, exactly like in-process channels.
#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn tcp_dead_rank_fails_typed_within_deadline() {
    let victim = 1;
    let setup = TrainSetup::tiny(2, 4)
        .with_transport(TransportKind::TcpLocalhost)
        .with_fault_plan(FaultPlan::new(5).with_dead_rank(victim, 20))
        .with_comm_config(CommConfig::fail_fast(Duration::from_millis(500)));
    let started = Instant::now();
    let results = run_distributed_per_rank(Strategy::WeiPipeInterleave, 2, &setup);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "chaos must fail typed, never hang"
    );
    for (rank, r) in results.iter().enumerate() {
        match r {
            Err(CommError::PeerDead { rank: dead }) => assert_eq!(*dead, victim),
            Err(CommError::Aborted { .. }) => {}
            other => panic!("rank {rank}: expected typed failure, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Multi-process: drive the `ranks` launcher binary, each rank its own
// OS process over localhost sockets.
// ---------------------------------------------------------------------

/// Run the launcher under an *outer* watchdog (belt and braces over the
/// launcher's own `--deadline-ms`): kill and fail the test if it outlives
/// `hard_deadline`. Returns (exit code, combined stdout).
fn run_launcher(args: &[&str], hard_deadline: Duration) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ranks"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn launcher");
    let started = Instant::now();
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        if started.elapsed() > hard_deadline {
            let _ = child.kill();
            panic!("launcher hung past {hard_deadline:?} — chaos must never hang");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("read launcher output");
    (status.code().unwrap_or(-1), out)
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn multiprocess_run_is_bit_identical_to_inprocess() {
    for p in ["2", "4"] {
        let (code, out) = run_launcher(
            &[
                "--ranks",
                p,
                "--compare-inprocess",
                "--deadline-ms",
                "60000",
            ],
            Duration::from_secs(120),
        );
        assert_eq!(code, 0, "P={p} launcher failed:\n{out}");
        assert!(
            out.contains("bit-identical losses, weights, and traffic"),
            "P={p} comparison did not run:\n{out}"
        );
    }
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn multiprocess_trace_out_emits_valid_drift_report() {
    let path =
        std::env::temp_dir().join(format!("wp-conformance-trace-{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");
    let (code, out) = run_launcher(
        &[
            "--ranks",
            "2",
            "--trace-out",
            path_s,
            "--deadline-ms",
            "60000",
        ],
        Duration::from_secs(120),
    );
    assert_eq!(code, 0, "launcher failed:\n{out}");
    assert!(
        out.contains("validated export"),
        "no validated export:\n{out}"
    );
    assert!(
        out.contains("Measured (multi-process TCP) vs simulated"),
        "no drift report:\n{out}"
    );
    let json = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!json.is_empty(), "trace file is empty");
    let _ = std::fs::remove_file(&path);
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn sigkilled_worker_fails_survivors_typed_never_hangs() {
    // SIGKILL rank 1 mid-step. The survivor must observe the unclean socket
    // close as PeerDead and the launcher must exit 1 (typed failure) —
    // never 2 (hang), never a clean 0 — and, metered, must have flagged the
    // victim in the live telemetry before the survivor's error is reported.
    let (code, out) = run_launcher(
        &[
            "--ranks",
            "2",
            "--iters",
            "300",
            "--metrics",
            "--kill-rank",
            "1",
            "--kill-after-ms",
            "40",
            "--recv-timeout-ms",
            "500",
            "--deadline-ms",
            "60000",
        ],
        Duration::from_secs(90),
    );
    assert_eq!(code, 1, "expected typed failure exit:\n{out}");
    assert!(
        out.contains("peer-dead") || out.contains("aborted"),
        "survivor must fail typed:\n{out}"
    );
    assert!(
        out.contains("[killed]"),
        "victim must be reported killed:\n{out}"
    );
    let stalled = out.find("rank 1 STALLED").expect("victim flagged STALLED");
    assert!(
        stalled < out.find("FAILED [").expect("a typed failure line"),
        "STALLED must precede the typed failures:\n{out}"
    );
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn metered_multiprocess_run_writes_both_exports() {
    // Workers heartbeat and report their slots as one-rank JSON documents;
    // the launcher merges them, passes the traffic-conservation check (a
    // violation exits 3) and writes the world snapshot in either form.
    for ext in ["prom", "json"] {
        let file = format!("wp-conformance-metrics-{}.{ext}", std::process::id());
        let path = std::env::temp_dir().join(file);
        let cmd = format!(
            "--ranks 2 --metrics --deadline-ms 60000 --metrics-out {}",
            path.display()
        );
        let args: Vec<&str> = cmd.split(' ').collect();
        let (code, out) = run_launcher(&args, Duration::from_secs(120));
        assert_eq!(code, 0, "launcher failed:\n{out}");
        assert!(out.contains("metrics rollup:"), "no rollup:\n{out}");
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_file(&path);
        if ext == "json" {
            let world = wp_metrics::parse_json(&text).expect("the JSON export parses back");
            assert_eq!(world.world_size(), 2);
        } else {
            assert!(text.starts_with("# TYPE "), "not an exposition:\n{text}");
        }
    }
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn sigkilled_worker_is_recovered_around() {
    // SIGKILL one of four workers mid-run with --recover: the launcher must
    // re-form the survivors as a 3-rank world at epoch 1, resume from the
    // newest snapshot every survivor holds, finish training (exit 0) and
    // merge the recovered epoch's metrics into the rollup. The run is long
    // enough (≈ 1.7 s on a 2-vCPU host) that the kill lands mid-run; 40
    // iterations finished before it there.
    let cmd = "--ranks 4 --layers 12 --microbatches 12 --iters 200 --metrics --recover \
               --kill-rank 1 --kill-after-ms 400 --recv-timeout-ms 2000 --deadline-ms 120000";
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let (code, out) = run_launcher(&args, Duration::from_secs(180));
    assert_eq!(code, 0, "recovery failed:\n{out}");
    for line in [
        "recovered: 4 → 3 ranks",
        "recovery rollup: 1 recovery epoch",
    ] {
        assert!(out.contains(line), "no {line:?} in:\n{out}");
    }
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn dead_rank_fault_plan_is_typed_across_processes() {
    // The same seeded fault spec the in-process chaos tests use, forwarded
    // to the workers over the command line: identical typed taxonomy.
    let (code, out) = run_launcher(
        &[
            "--ranks",
            "2",
            "--faults",
            "seed=3;dead=1,40",
            "--recv-timeout-ms",
            "400",
            "--deadline-ms",
            "60000",
        ],
        Duration::from_secs(90),
    );
    assert_eq!(code, 1, "expected typed failure exit:\n{out}");
    assert!(
        out.contains("peer-dead"),
        "expected PeerDead taxonomy:\n{out}"
    );
}

#[test]
#[ignore = "spawns worker processes: run in the transport-tcp CI job with --ignored"]
fn delay_only_faults_are_transparent_across_processes() {
    let (code, out) = run_launcher(
        &[
            "--ranks",
            "2",
            "--faults",
            "seed=7;jitter_ns=200000;reorder_bits=3fd0000000000000",
            "--compare-inprocess",
            "--deadline-ms",
            "60000",
        ],
        Duration::from_secs(120),
    );
    assert_eq!(
        code, 0,
        "delay-only plan must not change the result:\n{out}"
    );
    assert!(
        out.contains("bit-identical losses, weights, and traffic"),
        "comparison did not run:\n{out}"
    );
}
