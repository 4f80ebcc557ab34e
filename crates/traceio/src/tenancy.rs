//! Tenant attribution: whose access is this?
//!
//! The engines key everything by a dense tenant id `0..K`, but external
//! traces attribute accesses in whatever way their producer could:
//! an explicit tenant column (CSV, binary), raw OS thread ids (the
//! cachegrind-style text format's `T` markers), or nothing at all.
//! [`TenantPolicy`] names the four attribution rules and
//! [`TenantResolver`] applies one statefully; the parsed spec grammar is
//! shared by every CLI entry point.

use crate::error::TraceIoError;

/// The tenant-attribution rule for a trace read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantPolicy {
    /// Use the record's own tenant/thread field as the tenant id.
    Explicit,
    /// Translate thread ids through an explicit `thread -> tenant` map;
    /// an unmapped thread is a (recoverable) error.
    ThreadMap(Vec<(u64, usize)>),
    /// Assign dense tenant ids in order of first appearance of each
    /// distinct thread id.
    FirstSeen,
    /// Ignore attribution entirely and deal records round-robin over
    /// `K` tenants — the fallback for traces with no tenancy at all.
    RoundRobin(usize),
}

impl TenantPolicy {
    /// Parses the CLI spec grammar:
    ///
    /// * `explicit` — the record's own tenant field;
    /// * `map:TID=T,TID=T,...` — explicit thread-to-tenant pairs;
    /// * `first-seen` — dense ids in order of first appearance;
    /// * `rr:K` — round-robin over `K` tenants.
    pub fn parse(spec: &str) -> Result<TenantPolicy, String> {
        if spec == "explicit" {
            return Ok(TenantPolicy::Explicit);
        }
        if spec == "first-seen" {
            return Ok(TenantPolicy::FirstSeen);
        }
        if let Some(k) = spec.strip_prefix("rr:") {
            let k: usize = k
                .parse()
                .map_err(|_| format!("bad round-robin tenant count `{k}`"))?;
            if k == 0 {
                return Err("round-robin needs at least one tenant".into());
            }
            return Ok(TenantPolicy::RoundRobin(k));
        }
        if let Some(pairs) = spec.strip_prefix("map:") {
            let mut map = Vec::new();
            for pair in pairs.split(',') {
                let (tid, tenant) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad map entry `{pair}` (want TID=TENANT)"))?;
                let tid: u64 = tid
                    .parse()
                    .map_err(|_| format!("bad thread id `{tid}` in map"))?;
                let tenant: usize = tenant
                    .parse()
                    .map_err(|_| format!("bad tenant `{tenant}` in map"))?;
                if map.iter().any(|&(t, _)| t == tid) {
                    return Err(format!("thread {tid} mapped twice"));
                }
                map.push((tid, tenant));
            }
            if map.is_empty() {
                return Err("thread map needs at least one TID=TENANT pair".into());
            }
            return Ok(TenantPolicy::ThreadMap(map));
        }
        Err(format!(
            "unknown tenancy policy `{spec}` (explicit | map:TID=T,... | first-seen | rr:K)"
        ))
    }

    /// The spec string this policy parses back from.
    pub fn spec(&self) -> String {
        match self {
            TenantPolicy::Explicit => "explicit".into(),
            TenantPolicy::FirstSeen => "first-seen".into(),
            TenantPolicy::RoundRobin(k) => format!("rr:{k}"),
            TenantPolicy::ThreadMap(map) => {
                let pairs: Vec<String> = map.iter().map(|(t, n)| format!("{t}={n}")).collect();
                format!("map:{}", pairs.join(","))
            }
        }
    }
}

/// Stateful application of a [`TenantPolicy`].
#[derive(Clone, Debug)]
pub struct TenantResolver {
    policy: TenantPolicy,
    /// First-seen assignment table (thread id -> dense tenant).
    seen: Vec<u64>,
    /// Round-robin cursor.
    next: usize,
}

impl TenantResolver {
    /// Builds a resolver for `policy`.
    pub fn new(policy: TenantPolicy) -> Self {
        TenantResolver {
            policy,
            seen: Vec::new(),
            next: 0,
        }
    }

    /// Resolves one record's thread/tenant field to a tenant id.
    /// `line`/`offset` locate the record for error reporting.
    #[inline]
    pub fn resolve(&mut self, thread: u64, line: u64, offset: u64) -> Result<usize, TraceIoError> {
        match &self.policy {
            TenantPolicy::Explicit => Ok(thread as usize),
            TenantPolicy::ThreadMap(map) => map
                .iter()
                .find(|&&(t, _)| t == thread)
                .map(|&(_, tenant)| tenant)
                .ok_or(TraceIoError::UnmappedThread {
                    line,
                    offset,
                    thread,
                }),
            TenantPolicy::FirstSeen => {
                if let Some(i) = self.seen.iter().position(|&t| t == thread) {
                    Ok(i)
                } else {
                    self.seen.push(thread);
                    Ok(self.seen.len() - 1)
                }
            }
            TenantPolicy::RoundRobin(k) => {
                let t = self.next;
                self.next = (self.next + 1) % k;
                Ok(t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        for spec in ["explicit", "first-seen", "rr:4", "map:12=0,15=1"] {
            let p = TenantPolicy::parse(spec).unwrap();
            assert_eq!(p.spec(), spec);
        }
        assert!(TenantPolicy::parse("rr:0").is_err());
        assert!(TenantPolicy::parse("map:").is_err());
        assert!(TenantPolicy::parse("map:12=0,12=1").is_err());
        assert!(TenantPolicy::parse("banana").is_err());
    }

    #[test]
    fn explicit_passes_through() {
        let mut r = TenantResolver::new(TenantPolicy::Explicit);
        assert_eq!(r.resolve(3, 1, 0).unwrap(), 3);
    }

    #[test]
    fn thread_map_resolves_and_rejects() {
        let mut r = TenantResolver::new(TenantPolicy::ThreadMap(vec![(100, 0), (200, 1)]));
        assert_eq!(r.resolve(200, 1, 0).unwrap(), 1);
        assert!(matches!(
            r.resolve(300, 7, 90),
            Err(TraceIoError::UnmappedThread {
                thread: 300,
                line: 7,
                offset: 90,
            })
        ));
    }

    #[test]
    fn first_seen_assigns_densely() {
        let mut r = TenantResolver::new(TenantPolicy::FirstSeen);
        assert_eq!(r.resolve(900, 1, 0).unwrap(), 0);
        assert_eq!(r.resolve(42, 2, 0).unwrap(), 1);
        assert_eq!(r.resolve(900, 3, 0).unwrap(), 0);
        assert_eq!(r.resolve(7, 4, 0).unwrap(), 2);
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = TenantResolver::new(TenantPolicy::RoundRobin(3));
        let got: Vec<usize> = (0..7).map(|i| r.resolve(999, i, 0).unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 0]);
    }
}
