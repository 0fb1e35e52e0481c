//! Named fault-injection points for chaos testing (see `DESIGN.md` §9).
//!
//! Library code marks interesting failure sites with the
//! [`faultpoint!`](crate::faultpoint!) macro. In production nothing is
//! armed and a faultpoint costs one relaxed atomic load. Tests (or an
//! operator) arm points either programmatically ([`arm`]) or through
//! the environment:
//!
//! ```text
//! HTFORGE_FAULT=campaign.circuit:panic,podem.generate:delay:250
//! ```
//!
//! Each entry is `<point>:<action>` where `<action>` is `panic`,
//! `delay:<ms>` or `err`. `panic` and `delay` take effect inside
//! [`fire`] itself; `err` makes [`fire`] return `true` so the macro's
//! two-argument form can return a caller-supplied error.
//!
//! Arming is process-global; chaos tests that arm points must serialize
//! (the suite uses a shared mutex) and call [`disarm_all`] when done.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Every faultpoint compiled into the workspace, in pipeline order.
/// Chaos tests iterate this list; [`arm`] rejects names not on it.
pub const CATALOG: &[&str] = &[
    "rare.extract_chunk",
    "podem.generate",
    "compat.cube",
    "compat.matrix_row",
    "clique.extend",
    "insert.instance",
    "framework.validate",
    "detect.design",
    "campaign.circuit",
    "checkpoint.write",
    "server.dispatch",
    "server.respond",
    "server.progress",
    "server.journal_append",
    "server.journal_replay",
    "server.accept",
];

/// What an armed faultpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic with a recognizable message (exercises isolation paths).
    Panic,
    /// Sleep for the given duration (exercises deadline paths).
    Delay(Duration),
    /// Make [`fire`] return `true` (exercises error-return paths).
    Err,
}

const UNINIT: u8 = 0;
const DISARMED: u8 = 1;
const ARMED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

fn armed_map() -> &'static Mutex<HashMap<String, Action>> {
    static MAP: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parses one `<point>:<action>` spec.
fn parse_entry(entry: &str) -> Result<(String, Action), String> {
    let (point, action) = entry
        .split_once(':')
        .ok_or_else(|| format!("`{entry}`: expected <point>:<action>"))?;
    if !CATALOG.contains(&point) {
        return Err(format!("`{point}`: unknown faultpoint (see CATALOG)"));
    }
    let action = match action {
        "panic" => Action::Panic,
        "err" => Action::Err,
        delay if delay.starts_with("delay:") => {
            let ms: u64 = delay["delay:".len()..]
                .parse()
                .map_err(|_| format!("`{entry}`: delay wants integer milliseconds"))?;
            Action::Delay(Duration::from_millis(ms))
        }
        other => return Err(format!("`{other}`: expected panic, delay:<ms> or err")),
    };
    Ok((point.to_owned(), action))
}

/// Initializes the armed set from `HTFORGE_FAULT` if still uninitialized.
fn ensure_init() {
    if STATE.load(Ordering::Relaxed) != UNINIT {
        return;
    }
    let mut map = armed_map().lock().unwrap();
    // Re-check under the lock so a racing initializer wins cleanly.
    if STATE.load(Ordering::Relaxed) != UNINIT {
        return;
    }
    let spec = std::env::var("HTFORGE_FAULT").unwrap_or_default();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        match parse_entry(entry) {
            Ok((point, action)) => {
                map.insert(point, action);
            }
            Err(msg) => eprintln!("HTFORGE_FAULT: {msg}"),
        }
    }
    let state = if map.is_empty() { DISARMED } else { ARMED };
    STATE.store(state, Ordering::Release);
}

/// Arms `point` with `action` (test API). Takes effect process-wide.
///
/// # Panics
///
/// Panics if `point` is not in [`CATALOG`] — an armed typo would
/// otherwise silently test nothing.
pub fn arm(point: &str, action: Action) {
    assert!(
        CATALOG.contains(&point),
        "faultpoint::arm: `{point}` is not in CATALOG"
    );
    ensure_init();
    let mut map = armed_map().lock().unwrap();
    map.insert(point.to_owned(), action);
    STATE.store(ARMED, Ordering::Release);
}

/// Disarms every faultpoint (including ones armed via `HTFORGE_FAULT`).
pub fn disarm_all() {
    ensure_init();
    let mut map = armed_map().lock().unwrap();
    map.clear();
    STATE.store(DISARMED, Ordering::Release);
}

/// The action currently armed for `point`, if any.
#[must_use]
pub fn armed_action(point: &str) -> Option<Action> {
    ensure_init();
    armed_map().lock().unwrap().get(point).copied()
}

/// Hits the faultpoint: executes an armed `panic`/`delay` action in
/// place and returns `true` when an `err` action is armed (the caller —
/// normally the [`faultpoint!`](crate::faultpoint!) macro — then
/// returns its own error). Disarmed cost: one relaxed atomic load.
///
/// # Panics
///
/// Panics (by design) when `point` is armed with [`Action::Panic`].
#[inline]
pub fn fire(point: &str) -> bool {
    if STATE.load(Ordering::Relaxed) == DISARMED {
        return false;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: &str) -> bool {
    ensure_init();
    let action = match armed_action(point) {
        Some(a) => a,
        None => return false,
    };
    match action {
        Action::Panic => panic!("injected fault at `{point}`"),
        Action::Delay(d) => {
            std::thread::sleep(d);
            false
        }
        Action::Err => true,
    }
}

/// Marks a named fault-injection site.
///
/// * `faultpoint!("name")` — executes an armed `panic`/`delay` action;
///   an armed `err` action is ignored (no error channel here).
/// * `faultpoint!("name", expr)` — additionally does `return Err(expr)`
///   when an `err` action is armed; usable in functions returning
///   `Result`.
#[macro_export]
macro_rules! faultpoint {
    ($name:expr) => {
        let _ = $crate::faultpoint::fire($name);
    };
    ($name:expr, $err:expr) => {
        if $crate::faultpoint::fire($name) {
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Arming is process-global state: every test that arms must hold
    // this lock and disarm on the way out.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_entry_accepts_the_three_actions() {
        assert_eq!(
            parse_entry("campaign.circuit:panic"),
            Ok(("campaign.circuit".into(), Action::Panic))
        );
        assert_eq!(
            parse_entry("podem.generate:delay:250"),
            Ok((
                "podem.generate".into(),
                Action::Delay(Duration::from_millis(250))
            ))
        );
        assert_eq!(
            parse_entry("compat.cube:err"),
            Ok(("compat.cube".into(), Action::Err))
        );
        assert!(parse_entry("nope").is_err());
        assert!(parse_entry("not.a.point:panic").is_err());
        assert!(parse_entry("compat.cube:explode").is_err());
        assert!(parse_entry("compat.cube:delay:soon").is_err());
    }

    #[test]
    fn disarmed_fire_is_silent() {
        let _gate = GATE.lock().unwrap();
        disarm_all();
        assert!(!fire("campaign.circuit"));
    }

    #[test]
    fn err_action_reports_through_fire_and_macro() {
        let _gate = GATE.lock().unwrap();
        arm("compat.cube", Action::Err);
        assert!(fire("compat.cube"));
        assert!(!fire("campaign.circuit")); // other points unaffected
        fn guarded() -> Result<u32, String> {
            faultpoint!("compat.cube", "injected".to_owned());
            Ok(7)
        }
        assert_eq!(guarded(), Err("injected".to_owned()));
        disarm_all();
        assert_eq!(guarded(), Ok(7));
    }

    #[test]
    fn panic_action_panics_with_point_name() {
        let _gate = GATE.lock().unwrap();
        arm("clique.extend", Action::Panic);
        let payload = std::panic::catch_unwind(|| fire("clique.extend")).unwrap_err();
        disarm_all();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("clique.extend"), "{msg}");
    }

    #[test]
    fn delay_action_sleeps() {
        let _gate = GATE.lock().unwrap();
        arm("podem.generate", Action::Delay(Duration::from_millis(30)));
        let t0 = std::time::Instant::now();
        assert!(!fire("podem.generate"));
        disarm_all();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "not in CATALOG")]
    fn arm_rejects_unknown_points() {
        arm("no.such.point", Action::Err);
    }
}
