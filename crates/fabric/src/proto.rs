//! The fleet's membership bodies: worker registration and heartbeats.
//!
//! They share the `sigcomp-fleet v1` header with the dispatch/report
//! grammar, which lives with the rest of the shard-and-merge core in
//! [`sigcomp_explore::proto`]. Like that grammar they are strict: every
//! violation is a named error.
//!
//! ```text
//! sigcomp-fleet v1 register addr=10.0.0.7:7878 capacity=8
//! sigcomp-fleet v1 heartbeat addr=10.0.0.7:7878 capacity=8
//! obs counter replay.jobs_simulated 12
//! ```

use sigcomp_explore::FLEET_HEADER;
use sigcomp_obs::Snapshot;
use std::fmt::Write as _;

/// Encodes a registration body: the worker's dial-back address and its
/// capacity (worker threads it can bring to bear).
#[must_use]
pub fn encode_register(addr: &str, capacity: u64) -> String {
    format!("{FLEET_HEADER} register addr={addr} capacity={capacity}\n")
}

/// Encodes a heartbeat body: the registration fields plus the worker's
/// current observability snapshot as `obs` lines.
#[must_use]
pub fn encode_heartbeat(addr: &str, capacity: u64, obs: &Snapshot) -> String {
    let mut out = format!("{FLEET_HEADER} heartbeat addr={addr} capacity={capacity}\n");
    for line in obs.to_wire().lines() {
        let _ = writeln!(out, "obs {line}");
    }
    out
}

/// Parses a registration body into `(addr, capacity)`.
///
/// # Errors
///
/// A message naming the violation (bad header/fields, or an address that is
/// not a plain `host:port` authority).
pub fn parse_register(body: &str) -> Result<(String, u64), String> {
    let (addr, capacity, mut rest) = parse_announcement(body, "register")?;
    if rest.next().is_some() {
        return Err("trailing lines after a register body".to_owned());
    }
    Ok((addr, capacity))
}

/// Parses a heartbeat body into `(addr, capacity, obs_snapshot)`.
///
/// # Errors
///
/// Same conditions as [`parse_register`], plus malformed `obs` lines.
pub fn parse_heartbeat(body: &str) -> Result<(String, u64, Snapshot), String> {
    let (addr, capacity, rest) = parse_announcement(body, "heartbeat")?;
    let mut obs = Snapshot::default();
    for line in rest {
        let payload = line
            .strip_prefix("obs ")
            .ok_or_else(|| format!("unexpected heartbeat line '{line}'"))?;
        obs.parse_wire_line(payload).map_err(|e| e.to_string())?;
    }
    Ok((addr, capacity, obs))
}

/// Shared head of register/heartbeat bodies:
/// `sigcomp-fleet v1 <verb> addr=A capacity=N`.
fn parse_announcement<'a>(
    body: &'a str,
    verb: &str,
) -> Result<(String, u64, impl Iterator<Item = &'a str>), String> {
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("empty {verb} body"))?;
    let bad = || {
        format!(
            "bad {verb} header '{header}' \
             (expected '{FLEET_HEADER} {verb} addr=HOST:PORT capacity=N')"
        )
    };
    let rest = header.strip_prefix(FLEET_HEADER).ok_or_else(bad)?.trim();
    let mut parts = rest.split_whitespace();
    if parts.next() != Some(verb) {
        return Err(bad());
    }
    let addr = parts
        .next()
        .and_then(|t| t.strip_prefix("addr="))
        .ok_or_else(bad)?;
    let capacity: u64 = parts
        .next()
        .and_then(|t| t.strip_prefix("capacity="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    validate_addr(addr)?;
    Ok((addr.to_owned(), capacity, lines))
}

/// A worker address must be a plain `host:port` authority from a restricted
/// alphabet: it is echoed into JSON status documents and used as a dial
/// target, so anything exotic is rejected at the door.
fn validate_addr(addr: &str) -> Result<(), String> {
    let ok = !addr.is_empty()
        && addr.contains(':')
        && addr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | ':' | '-' | '_' | '[' | ']'));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "invalid worker address '{addr}' (expected host:port)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_obs::Registry;

    #[test]
    fn registration_and_heartbeats_round_trip() {
        let (addr, capacity) =
            parse_register(&encode_register("127.0.0.1:7878", 8)).expect("parses");
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(capacity, 8);

        let registry = Registry::new();
        registry.counter("replay.jobs_simulated").add(42);
        let body = encode_heartbeat("worker-3.local:9000", 4, &registry.snapshot());
        let (addr, capacity, obs) = parse_heartbeat(&body).expect("parses");
        assert_eq!(addr, "worker-3.local:9000");
        assert_eq!(capacity, 4);
        assert_eq!(obs.counter("replay.jobs_simulated"), 42);
    }

    #[test]
    fn announcement_violations_are_named() {
        for (body, needle) in [
            ("", "empty register body"),
            ("nope", "bad register header"),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1",
                "bad register header",
            ),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1 capacity=x",
                "bad register header",
            ),
            (
                "sigcomp-fleet v1 register addr=spaces-not-ok capacity=1",
                "invalid worker address",
            ),
            (
                "sigcomp-fleet v1 register addr=evil\"quote:1 capacity=1",
                "invalid worker address",
            ),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1 capacity=1\nextra",
                "trailing lines",
            ),
        ] {
            let err = parse_register(body).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
        let err =
            parse_heartbeat("sigcomp-fleet v1 heartbeat addr=a:1 capacity=1\nnot-obs").unwrap_err();
        assert!(err.contains("unexpected heartbeat line"), "{err}");
    }
}
