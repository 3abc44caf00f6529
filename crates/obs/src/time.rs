//! UTC timestamps without external date crates (Hinnant's
//! civil-from-days algorithm), shared by every artifact writer in the
//! workspace — the `bench` and `loadgen` date stamps previously each
//! carried their own copy.

/// Seconds since the Unix epoch.
pub(crate) fn unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs()
}

/// `(year, month, day)` of a Unix timestamp in UTC.
fn civil_from_secs(secs: u64) -> (i64, i64, i64) {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y, m, d)
}

/// `YYYY-MM-DD` in UTC for the given Unix timestamp.
pub(crate) fn utc_date_string_at(secs: u64) -> String {
    let (y, m, d) = civil_from_secs(secs);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `YYYY-MM-DD` in UTC, now.
pub fn utc_date_string() -> String {
    utc_date_string_at(unix_secs())
}

/// RFC 3339 `YYYY-MM-DDTHH:MM:SSZ` for the given Unix timestamp.
pub(crate) fn utc_datetime_string(secs: u64) -> String {
    let (y, m, d) = civil_from_secs(secs);
    let rem = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_instants() {
        assert_eq!(utc_datetime_string(0), "1970-01-01T00:00:00Z");
        // 2024-02-29 (leap day) 12:34:56 UTC.
        assert_eq!(utc_datetime_string(1_709_210_096), "2024-02-29T12:34:56Z");
        assert_eq!(utc_date_string_at(1_709_210_096), "2024-02-29");
    }

    #[test]
    fn now_is_well_formed() {
        let d = utc_date_string();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        let t = utc_datetime_string(unix_secs());
        assert_eq!(t.len(), 20);
        assert!(t.ends_with('Z'));
    }
}
