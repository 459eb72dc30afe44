//! Malformed-HTTP properties of `prefall_obsd::http::read_request`, the
//! parser behind both the metrics exporter and the fleet ingest
//! listener, over loopback socket pairs:
//!
//! * arbitrary bytes followed by a write shutdown never panic, and every
//!   call returns before the deadline;
//! * a valid request written in arbitrary fragments parses to the same
//!   request as one written whole;
//! * a `Content-Length` larger than the bytes sent is an error, never a
//!   short body.

use prefall_obsd::http::{read_request, HttpRequest};
use proptest::prelude::*;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(500);
const MAX_BODY: usize = 256;

fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    client.set_nodelay(true).unwrap();
    (client, server)
}

/// Writes `fragments` one at a time (pausing between them so the reader
/// sees them apart), shuts the write side, and reads requests until the
/// parser reports end of stream or an error.
fn exchange(fragments: Vec<Vec<u8>>) -> Vec<io::Result<Option<HttpRequest>>> {
    let (mut client, server) = pair();
    let writer = std::thread::spawn(move || {
        for f in fragments {
            client.write_all(&f).unwrap();
            std::thread::sleep(Duration::from_micros(300));
        }
        client.shutdown(Shutdown::Write).unwrap();
    });
    let mut reader = BufReader::new(server);
    let mut out = Vec::new();
    loop {
        let start = Instant::now();
        let got = read_request(&mut reader, start + DEADLINE, MAX_BODY);
        assert!(
            start.elapsed() < DEADLINE + Duration::from_millis(250),
            "read_request overran its deadline"
        );
        let done = !matches!(got, Ok(Some(_)));
        out.push(got);
        if done {
            break;
        }
    }
    writer.join().unwrap();
    out
}

/// A well-formed request with a `Content-Length`-framed body.
fn request_bytes(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Splits `bytes` at `cuts` (taken modulo the length, in any order).
fn fragment(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut from = 0;
    for c in cuts.into_iter().chain([bytes.len()]) {
        out.push(bytes[from..c].to_vec());
        from = c;
    }
    out
}

fn headers() -> impl Strategy<Value = Vec<(String, String)>> {
    let name = prop_oneof![
        Just("Host".to_string()),
        Just("X-Trace".to_string()),
        Just("connection".to_string()),
    ];
    let value = prop_oneof![
        Just("keep-alive".to_string()),
        Just("close".to_string()),
        Just("a b:c".to_string()),
    ];
    prop::collection::vec((name, value), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic_and_meet_the_deadline(
        noise in prop::collection::vec(0u8..=255, 0..700),
        text in prop::collection::vec(
            prop_oneof![8 => 32u8..127, 1 => Just(b'\r'), 1 => Just(b'\n')],
            0..5000,
        ),
        cuts in prop::collection::vec(0usize..6000, 0..4),
    ) {
        for bytes in [noise, text] {
            for got in exchange(fragment(&bytes, &cuts)) {
                if let Ok(Some(req)) = got {
                    prop_assert!(req.body.len() <= MAX_BODY);
                }
            }
        }
    }

    #[test]
    fn fragmented_requests_parse_like_whole_ones(
        method in prop_oneof![Just("GET"), Just("POST"), Just("HEAD")],
        path in prop_oneof![Just("/"), Just("/ingest"), Just("/metrics?x=1")],
        headers in headers(),
        body in prop::collection::vec(0u8..=255, 0..MAX_BODY),
        cuts in prop::collection::vec(0usize..1024, 0..8),
    ) {
        let wire = request_bytes(method, path, &headers, &body);
        let whole = exchange(vec![wire.clone()]);
        let pieces = exchange(fragment(&wire, &cuts));
        let (Ok(Some(a)), Ok(Some(b))) = (&whole[0], &pieces[0]) else {
            return Err(TestCaseError::Fail(format!("{whole:?} vs {pieces:?}")));
        };
        prop_assert_eq!(a, b);
        prop_assert_eq!(&a.body, &body);
    }

    #[test]
    fn content_length_lies_are_errors_never_short_bodies(
        headers in headers(),
        body in prop::collection::vec(0u8..=255, 0..MAX_BODY - 8),
        missing in 1usize..8,
        cuts in prop::collection::vec(0usize..512, 0..4),
    ) {
        let mut wire = request_bytes("POST", "/ingest", &headers, &body);
        let declared = format!("Content-Length: {}\r\n", body.len());
        let lie = format!("Content-Length: {}\r\n", body.len() + missing);
        let at = wire
            .windows(declared.len())
            .position(|w| w == declared.as_bytes())
            .unwrap();
        wire.splice(at..at + declared.len(), lie.into_bytes());
        let got = exchange(fragment(&wire, &cuts));
        prop_assert!(got[0].is_err(), "short body accepted: {:?}", got[0]);
    }
}
