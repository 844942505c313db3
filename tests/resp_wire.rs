//! Integration: the RESP wire path end-to-end — profile a workload through
//! a TCP client against the mini-Redis server and validate the KRR
//! prediction against the wire-measured miss ratio (§5.7, but over an
//! actual protocol instead of an embedded store).

use krr::prelude::*;
use krr::redis::client::Client;
use krr::redis::server::Server;
use krr::redis::MiniRedis;
use krr::trace::ycsb;

const OBJ: u32 = 200;

#[test]
fn wire_miss_ratio_matches_embedded_store() {
    let trace = ycsb::WorkloadC::new(2_000, 0.9).generate(20_000, 1);
    let memory = 1_000 * u64::from(OBJ);

    // Over the wire.
    let mut server = Server::start(MiniRedis::new(memory, 5, 7)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut wire_hits = 0u64;
    for r in &trace {
        if client.access(r.key, OBJ).unwrap() {
            wire_hits += 1;
        }
    }
    let wire_miss = 1.0 - wire_hits as f64 / trace.len() as f64;
    server.shutdown();

    // Embedded.
    let mut store = MiniRedis::new(memory, 5, 7);
    let mut local_hits = 0u64;
    for r in &trace {
        if store.access(&Request::get(r.key, OBJ)) {
            local_hits += 1;
        }
    }
    let local_miss = 1.0 - local_hits as f64 / trace.len() as f64;

    // Same store, same seed, same request stream -> identical decisions.
    assert!(
        (wire_miss - local_miss).abs() < 1e-9,
        "wire {wire_miss} vs embedded {local_miss}"
    );
}

#[test]
fn krr_predicts_wire_measured_miss_ratio() {
    let objects = 3_000u64;
    let trace = ycsb::WorkloadC::new(objects, 0.99).generate(30_000, 2);
    let memory = objects * u64::from(OBJ) / 2;

    let mut server = Server::start(MiniRedis::new(memory, 5, 3)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut hits = 0u64;
    for r in &trace {
        if client.access(r.key, OBJ).unwrap() {
            hits += 1;
        }
    }
    let wire_miss = 1.0 - hits as f64 / trace.len() as f64;
    server.shutdown();

    let mut model = KrrModel::new(KrrConfig::new(5.0).seed(4));
    for r in &trace {
        model.access_key(r.key);
    }
    let predicted = model.mrc().eval(memory as f64 / f64::from(OBJ));
    assert!(
        (predicted - wire_miss).abs() < 0.05,
        "KRR {predicted} vs wire-measured {wire_miss}"
    );
}

#[test]
fn info_counters_match_client_observations() {
    let mut server = Server::start(MiniRedis::new(100_000, 5, 5)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for i in 0..500u64 {
        if client.access(i % 100, 50).unwrap() {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let info = client.info().unwrap();
    assert!(info.contains(&format!("hits:{hits}")), "{info}");
    assert!(info.contains(&format!("misses:{misses}")), "{info}");
    server.shutdown();
}

/// First `name:<u64>` field in a Redis-INFO-style body.
fn info_field(body: &str, name: &str) -> u64 {
    body.lines()
        .filter_map(|l| l.trim_end().strip_prefix(&format!("{name}:")))
        .find_map(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("field {name} missing from\n{body}"))
}

/// `"name":<u64>` field in the METRICS JSON payload.
fn json_field(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("field {name} missing from {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn info_exposes_metrics_sections() {
    let mut server = Server::start(MiniRedis::new(4_000, 5, 9)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Working set larger than memory, so evictions happen too.
    for i in 0..400u64 {
        client.access(i % 120, 50).unwrap();
    }
    let info = client.info().unwrap();
    for section in [
        "# model",
        "# updater",
        "# latency",
        "# shards",
        "# pipeline",
        "# eviction",
    ] {
        assert!(info.contains(section), "{section} missing from\n{info}");
    }
    assert_eq!(info_field(&info, "accesses"), 400);
    assert!(info_field(&info, "evictions") > 0, "{info}");
    server.shutdown();
}

#[test]
fn pipeline_metrics_exposed_over_the_wire() {
    // A store with online MRC profiling exposes the profiler's shard and
    // pipeline counters through the same INFO/METRICS endpoints.
    let mut store = MiniRedis::new(100_000, 5, 13);
    store.enable_mrc_profiling(&KrrConfig::new(5.0).seed(2), 4);
    let mut server = Server::start(store).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..300u64 {
        client.access(i % 90, 50).unwrap();
    }
    let info = client.info().unwrap();
    assert!(info.contains("# pipeline"), "{info}");
    for field in [
        "batches",
        "stalls",
        "keys_hashed",
        "router_busy_ns",
        "worker_busy_ns",
    ] {
        let _ = info_field(&info, field);
    }
    assert!(info.contains("queue_depth_hwm:"), "{info}");
    // The profiler feeds through the sequential path here, so the shard
    // counters are live while the pipeline counters stay zero.
    let json = client.metrics().unwrap();
    assert!(json.contains("\"pipeline\":{\"batches\":"), "{json}");
    assert!(json.contains("\"queue_depth_hwm\":["), "{json}");
    let shard_total: u64 = {
        // The model section's "accesses" is scalar; only the shards
        // section carries "accesses":[...].
        let pat = "\"accesses\":[";
        let at = json.find(pat).map(|i| i + pat.len());
        at.map_or(0, |i| {
            json[i..]
                .split(']')
                .next()
                .unwrap_or("")
                .split(',')
                .filter_map(|v| v.parse::<u64>().ok())
                .sum()
        })
    };
    assert_eq!(shard_total, 300, "{json}");
    server.shutdown();
}

#[test]
fn metrics_command_counters_monotone_and_match_info() {
    let mut server = Server::start(MiniRedis::new(4_000, 5, 11)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..200u64 {
        client.access(i % 60, 50).unwrap();
    }
    let first = client.metrics().unwrap();
    assert!(first.contains("\"schema\":\"krr-metrics-v1\""), "{first}");
    for i in 0..200u64 {
        client.access(i % 60, 50).unwrap();
    }
    let second = client.metrics().unwrap();
    for name in ["accesses", "hits", "evictions"] {
        let (a, b) = (json_field(&first, name), json_field(&second, name));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    assert_eq!(json_field(&second, "accesses"), 400);
    // One sequential client, so INFO and METRICS see the same quiesced
    // counters.
    let info = client.info().unwrap();
    for name in ["accesses", "hits", "cold_misses", "evictions"] {
        assert_eq!(
            info_field(&info, name),
            json_field(&second, name),
            "INFO and METRICS disagree on {name}"
        );
    }
    server.shutdown();
}

mod support;

// ---------------------------------------------------------------------------
// Adversarial wire cases: hostile framing against a live server socket.
// Exhaustive per-byte-boundary coverage lives in the codec's unit tests
// (`resp::tests`); these exercise the same paths through real TCP,
// including the server's 50ms socket read timeout.
// ---------------------------------------------------------------------------

use krr::redis::resp::{self, Value};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Raw socket + buffered reader pair, bypassing the `Client` wrapper so a
/// test controls exactly which bytes hit the wire and when.
fn raw_conn(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn pipelined_burst_in_one_tcp_segment() {
    let mut server = Server::start(MiniRedis::new(100_000, 5, 29)).unwrap();
    let (mut stream, mut reader) = raw_conn(server.addr());
    // 100 SET+GET pairs encoded into one buffer and one write call: the
    // server must frame every command itself instead of relying on
    // message-per-read.
    let mut wire = Vec::new();
    for key in 0..100u64 {
        let k = key.to_string();
        resp::write_value(
            &mut wire,
            &Value::command(&[b"SET", k.as_bytes(), b"xxxxxxxx"]),
        )
        .unwrap();
        resp::write_value(&mut wire, &Value::command(&[b"GET", k.as_bytes()])).unwrap();
    }
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    for key in 0..100u64 {
        let set_reply = resp::read_value(&mut reader).unwrap();
        assert!(
            matches!(&set_reply, Value::Simple(s) if s == "OK"),
            "SET {key}: {set_reply:?}"
        );
        let get_reply = resp::read_value(&mut reader).unwrap();
        assert_eq!(get_reply, Value::bulk(b"1".to_vec()), "GET {key}");
    }
    server.shutdown();
}

#[test]
fn command_split_across_reads_survives_socket_timeouts() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 31)).unwrap();
    let (mut stream, mut reader) = raw_conn(server.addr());
    // One byte per write, with a pause longer than the server's 50ms read
    // timeout between each: every byte boundary of the command doubles as
    // a timeout boundary. The old line reader lost its partial state on
    // the first timeout and desynced the stream.
    let cmd = b"*1\r\n$4\r\nPING\r\n";
    for &b in cmd.iter() {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
    }
    let reply = resp::read_value(&mut reader).unwrap();
    assert!(
        matches!(&reply, Value::Simple(s) if s == "PONG"),
        "{reply:?}"
    );
    // Same split mid-bulk-payload: the value "hello" arrives in two
    // fragments with a >timeout gap, then the connection keeps working.
    let (head, tail) = (
        b"*3\r\n$3\r\nSET\r\n$2\r\n77\r\n$5\r\nhel" as &[u8],
        b"lo\r\n" as &[u8],
    );
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    stream.write_all(tail).unwrap();
    stream.flush().unwrap();
    let reply = resp::read_value(&mut reader).unwrap();
    assert!(matches!(&reply, Value::Simple(s) if s == "OK"), "{reply:?}");
    stream
        .write_all(b"*2\r\n$3\r\nGET\r\n$2\r\n77\r\n")
        .unwrap();
    stream.flush().unwrap();
    assert_eq!(
        resp::read_value(&mut reader).unwrap(),
        Value::bulk(b"1".to_vec())
    );
    server.shutdown();
}

#[test]
fn reply_is_written_before_waiting_on_a_partial_command() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 43)).unwrap();
    let (mut stream, mut reader) = raw_conn(server.addr());
    // Warm up the exemplar ring first: while it has seen few commands it
    // captures every one, and each capture writes the queued replies,
    // which would mask a reply held back below.
    let ping = b"*1\r\n$4\r\nPING\r\n";
    for _ in 0..2_000 {
        stream.write_all(ping).unwrap();
        assert_eq!(
            resp::read_value(&mut reader).unwrap(),
            Value::Simple("PONG".into())
        );
    }
    // A complete PING plus the head of a second one in one write: the
    // server must answer the first before it blocks reading the rest.
    stream
        .write_all(b"*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPI")
        .unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(1)))
        .unwrap();
    std::io::BufRead::fill_buf(&mut reader).expect("PONG within 1 s");
    assert_eq!(
        resp::read_value(&mut reader).unwrap(),
        Value::Simple("PONG".into())
    );
    stream.write_all(b"NG\r\n").unwrap();
    assert_eq!(
        resp::read_value(&mut reader).unwrap(),
        Value::Simple("PONG".into())
    );
    server.shutdown();
}

#[test]
fn oversized_and_zero_length_bulk_strings() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 37)).unwrap();

    // A 600MB bulk claim must be refused before allocation: the server
    // answers with a protocol error and hangs up instead of reserving
    // attacker-chosen memory.
    let (mut stream, mut reader) = raw_conn(server.addr());
    stream
        .write_all(format!("*2\r\n$3\r\nGET\r\n${}\r\n", 600u64 << 20).as_bytes())
        .unwrap();
    stream.flush().unwrap();
    let reply = resp::read_value(&mut reader).unwrap();
    assert!(
        matches!(&reply, Value::Error(e) if e.contains("Protocol error")),
        "{reply:?}"
    );
    assert!(
        resp::read_value(&mut reader).is_err(),
        "connection must close after a protocol error"
    );

    // Same for a hostile array arity claim.
    let (mut stream, mut reader) = raw_conn(server.addr());
    stream.write_all(b"*999999999\r\n").unwrap();
    stream.flush().unwrap();
    let reply = resp::read_value(&mut reader).unwrap();
    assert!(
        matches!(&reply, Value::Error(e) if e.contains("Protocol error")),
        "{reply:?}"
    );

    // Zero-length bulks are *valid* RESP: an empty SET value stores a
    // zero-byte object, and an empty key is merely a command-level error
    // (keys are u64 here), never a hangup.
    let (mut stream, mut reader) = raw_conn(server.addr());
    stream
        .write_all(b"*3\r\n$3\r\nSET\r\n$1\r\n5\r\n$0\r\n\r\n")
        .unwrap();
    stream.write_all(b"*2\r\n$3\r\nGET\r\n$0\r\n\r\n").unwrap();
    stream.write_all(b"*1\r\n$4\r\nPING\r\n").unwrap();
    stream.flush().unwrap();
    assert!(matches!(
        resp::read_value(&mut reader).unwrap(),
        Value::Simple(_)
    ));
    assert!(matches!(
        resp::read_value(&mut reader).unwrap(),
        Value::Error(_)
    ));
    assert!(
        matches!(&resp::read_value(&mut reader).unwrap(), Value::Simple(s) if s == "PONG"),
        "connection must survive command-level errors"
    );
    server.shutdown();
}

#[test]
fn abrupt_mid_command_disconnect_leaves_server_healthy() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 41)).unwrap();
    // Sever connections at several cut points inside a command; each
    // abandoned fragment must be contained to its own connection.
    for cut in [
        b"*3\r\n" as &[u8],
        b"*3\r\n$3\r\nSE",
        b"*3\r\n$3\r\nSET\r\n$2\r\n10\r\n$5\r\nhe",
        b"$12\r\nnever-arrive",
    ] {
        let (mut stream, _reader) = raw_conn(server.addr());
        stream.write_all(cut).unwrap();
        stream.flush().unwrap();
        drop(stream); // RST/FIN mid-command
    }
    // The accept loop and store are unaffected.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap());
    for i in 0..50u64 {
        client.access(i, 50).unwrap();
    }
    assert_eq!(client.dbsize().unwrap(), 50);
    server.shutdown();
}

#[test]
fn slowlog_over_the_wire() {
    let mut server = Server::start(MiniRedis::new(100_000, 5, 17)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Default threshold is 10ms, so the in-memory fast path logs nothing.
    for i in 0..50u64 {
        client.access(i, 50).unwrap();
    }
    assert_eq!(
        client.slowlog_len().unwrap(),
        0,
        "fast commands were logged"
    );
    // Threshold 0 logs every command that follows.
    client.set_slowlog_threshold_us(0).unwrap();
    client.set(1, 64).unwrap();
    assert!(client.get(1).unwrap());
    client.dbsize().unwrap();
    let entries = client.slowlog_get().unwrap();
    // Newest first, unique ascending ids, command argv preserved verbatim.
    let ids: Vec<i64> = entries.iter().map(|e| e.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(ids, sorted, "entries not newest-first: {ids:?}");
    let argv0: Vec<&[u8]> = entries.iter().map(|e| e.3[0].as_slice()).collect();
    // The newest logged entry is the SLOWLOG LEN probe... no: LEN ran
    // before threshold 0 in this sequence, so the tail here is
    // [DBSIZE, GET, SET, CONFIG] oldest-last.
    assert_eq!(
        argv0,
        [b"DBSIZE" as &[u8], b"GET", b"SET", b"CONFIG"],
        "unexpected slowlog commands"
    );
    let get_entry = entries.iter().find(|e| e.3[0] == b"GET").unwrap();
    assert_eq!(get_entry.3[1], b"1", "GET argument not preserved");
    assert!(get_entry.1 >= 0 && get_entry.2 >= 0, "negative timestamps");
    // No TENANT was selected on this connection, so every entry is
    // unattributed (RESP nil in the 5th field).
    assert!(entries.iter().all(|e| e.4.is_none()), "{entries:?}");
    // RESET clears history; with threshold 0 the RESET itself is the
    // only survivor when LEN next looks.
    client.slowlog_reset().unwrap();
    assert_eq!(client.slowlog_len().unwrap(), 1);
    server.shutdown();
}

#[test]
fn slowlog_config_roundtrip_over_the_wire() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 19)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_slowlog_threshold_us(250).unwrap();
    let reply = client
        .raw(&[b"CONFIG", b"GET", b"slowlog-log-slower-than"])
        .unwrap();
    let krr::redis::resp::Value::Array(items) = reply else {
        panic!("CONFIG GET: expected array, got {reply:?}");
    };
    assert_eq!(
        items,
        vec![
            krr::redis::resp::Value::Bulk(Some(b"slowlog-log-slower-than".to_vec())),
            krr::redis::resp::Value::Bulk(Some(b"250".to_vec())),
        ]
    );
    server.shutdown();
}

#[test]
fn trace_dump_returns_chrome_trace_with_command_spans() {
    use support::json::{parse, Json};
    let mut server = Server::start(MiniRedis::new(100_000, 5, 23)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..200u64 {
        client.access(i % 40, 50).unwrap();
    }
    let dump = client.trace_dump().unwrap();
    let doc = parse(&dump).expect("TRACE DUMP must return valid JSON");
    assert_eq!(
        doc.get("otherData")
            .and_then(|d| d.get("schema"))
            .and_then(Json::as_str),
        Some("krr-trace-v1")
    );
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut conn_ring = false;
    let mut command_spans = 0u64;
    for ev in events {
        match ev.get("ph").and_then(Json::as_str) {
            Some("M") => {
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                conn_ring |= name.starts_with("conn-");
            }
            Some("X") => {
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
                assert!(ev.get("dur").and_then(Json::as_num).is_some());
                if ev.get("name").and_then(Json::as_str) == Some("command") {
                    command_spans += 1;
                }
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(conn_ring, "no conn-* thread registered in the trace");
    // 200 GETs plus one SET per cold miss (40 distinct keys, all fit),
    // and the default ring keeps the newest 8192 events, so every
    // command span is still present.
    assert_eq!(
        command_spans, 240,
        "expected 200 GET + 40 SET command spans"
    );
    server.shutdown();
}
