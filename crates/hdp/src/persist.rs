//! Snapshot codec for the HDP posterior: the section payloads a durable
//! [`crate::PosteriorSnapshot`] checkpoint is made of.
//!
//! The container framing (magic, version, CRCs) lives in
//! [`osr_stats::snapshot`]; this module owns only the *section* byte
//! layouts for the franchise state. Everything serialized here is canonical
//! observable state — seating, dish statistics, concentrations, the
//! free-list replay order — while derived quantities (predictive constants,
//! caches, scratch buffers, the live-dish index) are rebuilt on load
//! through the exact code paths a freshly trained sampler uses, which is
//! what makes save → load → re-save byte-identical and a reloaded replica
//! bit-equal to the original.
//!
//! Deliberately named `persist`, not `snapshot`: the workspace lint scopes
//! its `snapshot-versioned` rule to `*/snapshot.rs` files, which are the
//! modules that own serializable container/report types.

use std::sync::Arc;

use osr_stats::snapshot::{Dec, Enc, SnapResult, SnapshotError, SnapshotFile, SnapshotWriter};
use osr_stats::{DishBank, NiwParams};

use crate::state::{DishMenu, HdpConfig, HdpState, Table};
use crate::Points;

/// Section id of the base-measure hyperparameters (NIW prior).
pub const SEC_PARAMS: u32 = 1;
/// Section id of the sampler configuration.
pub const SEC_HDP_CONFIG: u32 = 2;
/// Section id of the seating arrangement (groups, tables, dishes, menu,
/// concentrations).
pub const SEC_SEATING: u32 = 3;
/// Section id of the dish bank (per-dish NIW sufficient statistics).
pub const SEC_BANK: u32 = 4;

/// `u64` sentinel standing in for `usize::MAX` (an unseated item) on the
/// wire — the format is 64-bit regardless of host.
const UNSEATED: u64 = u64::MAX;

/// Append every HDP section to `w`.
pub(crate) fn write_sections(state: &HdpState, config: &HdpConfig, w: &mut SnapshotWriter) {
    let mut enc = Enc::new();
    state.params.encode_into(&mut enc);
    w.section(SEC_PARAMS, enc.into_bytes());

    let mut enc = Enc::new();
    enc.put_f64(config.gamma_prior.0);
    enc.put_f64(config.gamma_prior.1);
    enc.put_f64(config.alpha_prior.0);
    enc.put_f64(config.alpha_prior.1);
    enc.put_bool(config.resample_concentrations);
    enc.put_usize(config.iterations);
    w.section(SEC_HDP_CONFIG, enc.into_bytes());

    let mut enc = Enc::new();
    encode_seating(state, &mut enc);
    w.section(SEC_SEATING, enc.into_bytes());

    let mut enc = Enc::new();
    state.bank.encode_into(&mut enc);
    w.section(SEC_BANK, enc.into_bytes());
}

/// Decode every HDP section of a verified container back into snapshot
/// parts, cross-validating the seating bookkeeping so a later sweep can
/// never panic on state a corrupted-but-CRC-valid writer produced.
pub(crate) fn read_sections(file: &SnapshotFile<'_>) -> SnapResult<(HdpState, HdpConfig)> {
    let mut dec = Dec::new(file.section(SEC_PARAMS)?);
    let params = NiwParams::decode_from(&mut dec)?;
    dec.finish("params section")?;
    if params.dim() != file.dim() {
        return Err(SnapshotError::DimensionMismatch {
            expected: file.dim(),
            got: params.dim(),
        });
    }

    let mut dec = Dec::new(file.section(SEC_HDP_CONFIG)?);
    let config = HdpConfig {
        gamma_prior: (dec.f64("gamma_prior shape")?, dec.f64("gamma_prior rate")?),
        alpha_prior: (dec.f64("alpha_prior shape")?, dec.f64("alpha_prior rate")?),
        resample_concentrations: dec.bool("resample_concentrations")?,
        iterations: dec.usize("iterations")?,
    };
    dec.finish("config section")?;
    config
        .validate()
        .map_err(|e| SnapshotError::Malformed(format!("HdpConfig: {e}")))?;

    let mut dec = Dec::new(file.section(SEC_BANK)?);
    let bank = DishBank::decode_from(&mut dec, &params)?;
    dec.finish("bank section")?;

    let mut dec = Dec::new(file.section(SEC_SEATING)?);
    let state = decode_seating(&mut dec, params, bank)?;
    dec.finish("seating section")?;
    Ok((state, config))
}

fn encode_seating(state: &HdpState, enc: &mut Enc) {
    enc.put_usize(state.groups.len());
    for (group, assignment) in state.groups.iter().zip(&state.assignment) {
        enc.put_usize(group.len());
        enc.put_f64_slice(group.as_flat());
        debug_assert_eq!(group.len(), assignment.len());
        for &table in assignment {
            enc.put_u64(if table == usize::MAX { UNSEATED } else { table as u64 });
        }
    }
    for tables in &state.tables {
        enc.put_usize(tables.len());
        for table in tables {
            enc.put_usize(table.dish);
            enc.put_usize(table.members.len());
            for &member in &table.members {
                enc.put_usize(member);
            }
        }
    }
    state.menu.encode_into(enc);
    enc.put_f64(state.gamma);
    enc.put_f64(state.alpha);
    enc.put_u64(state.seat_moves);
}

fn decode_seating(
    dec: &mut Dec<'_>,
    params: NiwParams,
    bank: DishBank,
) -> SnapResult<HdpState> {
    let d = params.dim();
    let n_groups = dec.count(8, "group count")?;
    let mut groups = Vec::with_capacity(n_groups);
    let mut assignment = Vec::with_capacity(n_groups);
    for j in 0..n_groups {
        // `count` has checked that `len` rows of `d` coordinates plus their
        // seats fit in the section, so the product cannot overflow.
        let len = dec.count(8 * (d + 1), "group length")?;
        let points = dec.f64_vec(len * d, "group point")?;
        if let Some(c) = points.iter().position(|v| !v.is_finite()) {
            return Err(SnapshotError::Malformed(format!(
                "group {j} point {} has a non-finite coordinate",
                c / d
            )));
        }
        let mut seats = Vec::with_capacity(len);
        for _ in 0..len {
            let raw = dec.u64("assignment entry")?;
            seats.push(if raw == UNSEATED {
                usize::MAX
            } else {
                usize::try_from(raw).map_err(|_| {
                    SnapshotError::Malformed(format!(
                        "group {j}: assignment entry {raw} exceeds the host's usize"
                    ))
                })?
            });
        }
        groups.push(Arc::new(Points::from_flat(d, len, points)));
        assignment.push(seats);
    }
    let mut tables = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let n_tables = dec.count(2 * 8, "table count")?;
        let mut group_tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let dish = dec.usize("table dish")?;
            let n_members = dec.count(8, "table member count")?;
            let mut members = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                members.push(dec.usize("table member")?);
            }
            group_tables.push(Table { dish, members });
        }
        tables.push(group_tables);
    }
    let menu = DishMenu::decode_from(dec)?;
    let gamma = dec.f64("gamma")?;
    let alpha = dec.f64("alpha")?;
    let seat_moves = dec.u64("seat_moves")?;
    if !(gamma.is_finite() && gamma > 0.0 && alpha.is_finite() && alpha > 0.0) {
        return Err(SnapshotError::Malformed(format!(
            "concentrations gamma = {gamma}, alpha = {alpha} out of domain"
        )));
    }

    let state = HdpState {
        params,
        groups,
        assignment,
        tables,
        menu,
        bank,
        gamma,
        alpha,
        seat_moves,
        scratch: Default::default(),
    };
    validate_seating(&state)?;
    Ok(state)
}

/// Cross-validate the decoded bookkeeping: every index that the seating
/// engine would later follow unchecked must resolve. This is the non-panicking
/// twin of `HdpState::check_invariants` — corruption that survives the CRCs
/// (i.e. a buggy or hostile writer) surfaces here as
/// [`SnapshotError::Malformed`].
///
/// Linear in the seating: each group's tables mark the members they list
/// (a member must sit at the table that lists it, and only once), and every
/// seated item must then be marked.
fn validate_seating(state: &HdpState) -> SnapResult<()> {
    let malformed = |msg: String| Err(SnapshotError::Malformed(msg));
    if state.tables.len() != state.groups.len() {
        return malformed(format!(
            "{} table lists for {} groups",
            state.tables.len(),
            state.groups.len()
        ));
    }
    let mut n_tables_by_dish = vec![0usize; state.menu.n_ids()];
    let mut listed = Vec::new();
    for (j, ((group, seats), tables)) in
        state.groups.iter().zip(&state.assignment).zip(&state.tables).enumerate()
    {
        if group.len() != seats.len() {
            return malformed(format!(
                "group {j}: {} assignment entries for {} points",
                seats.len(),
                group.len()
            ));
        }
        listed.clear();
        listed.resize(seats.len(), false);
        for (t, table) in tables.iter().enumerate() {
            match state.menu.get(table.dish) {
                Some(_) => n_tables_by_dish[table.dish] += 1,
                None => {
                    return malformed(format!(
                        "group {j} table {t} serves unknown dish {}",
                        table.dish
                    ))
                }
            }
            if table.members.is_empty() {
                return malformed(format!("group {j} table {t} has no members"));
            }
            for &i in &table.members {
                if seats.get(i) != Some(&t) {
                    return malformed(format!(
                        "group {j} table {t} lists member {i} that is not seated there"
                    ));
                }
                if std::mem::replace(&mut listed[i], true) {
                    return malformed(format!("group {j} table {t} lists member {i} twice"));
                }
            }
        }
        for (i, (&t, &is_listed)) in seats.iter().zip(&listed).enumerate() {
            if t != usize::MAX {
                if t >= tables.len() {
                    return malformed(format!(
                        "group {j} item {i} sits at table {t} of {}",
                        tables.len()
                    ));
                }
                if !is_listed {
                    return malformed(format!(
                        "group {j} item {i} is not among table {t}'s members"
                    ));
                }
            }
        }
    }
    let mut seen_slots = vec![false; state.bank.n_slots()];
    for (id, dish) in state.live_dishes() {
        if dish.slot >= state.bank.n_slots() || !state.bank.is_live(dish.slot) {
            return malformed(format!("dish {id} occupies dead bank slot {}", dish.slot));
        }
        if seen_slots[dish.slot] {
            return malformed(format!("dish {id} shares bank slot {}", dish.slot));
        }
        seen_slots[dish.slot] = true;
        if dish.n_tables != n_tables_by_dish[id] {
            return malformed(format!(
                "dish {id} claims {} tables but {} serve it",
                dish.n_tables, n_tables_by_dish[id]
            ));
        }
    }
    if state.bank.n_live() != state.n_dishes() {
        return malformed(format!(
            "bank has {} live slots for {} live dishes",
            state.bank.n_live(),
            state.n_dishes()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hdp;
    use osr_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A converged two-group state over 2-D blobs, every table of group 0
    /// with at least one member and one table with two or more.
    fn trained() -> (HdpState, HdpConfig) {
        let mut rng = StdRng::seed_from_u64(31);
        let blob = |rng: &mut StdRng, cx: f64| -> Vec<Vec<f64>> {
            (0..20)
                .map(|_| {
                    vec![
                        cx + 0.5 * osr_stats::sampling::standard_normal(rng),
                        0.5 * osr_stats::sampling::standard_normal(rng),
                    ]
                })
                .collect()
        };
        let groups = [blob(&mut rng, -5.0), blob(&mut rng, 5.0)];
        let params =
            NiwParams::new(vec![0.0, 0.0], 1.0, 5.0, Matrix::identity(2)).unwrap();
        let config = HdpConfig { iterations: 5, ..Default::default() };
        let mut hdp = Hdp::new(params, config, &groups).unwrap();
        hdp.run(&mut rng);
        (hdp.state().clone(), config)
    }

    /// Encode `state` into a container whose CRCs are all valid.
    fn encode(state: &HdpState, config: &HdpConfig) -> Vec<u8> {
        let mut w = SnapshotWriter::new("cdosr", state.params.dim());
        write_sections(state, config, &mut w);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> SnapResult<(HdpState, HdpConfig)> {
        read_sections(&SnapshotFile::parse(bytes)?)
    }

    /// The `Malformed` message a crafted state decodes to.
    fn malformed(state: &HdpState, config: &HdpConfig) -> String {
        match decode(&encode(state, config)) {
            Err(SnapshotError::Malformed(msg)) => msg,
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(_) => panic!("a corrupt seating decoded"),
        }
    }

    #[test]
    fn seating_round_trips_byte_identically() {
        let (state, config) = trained();
        let bytes = encode(&state, &config);
        let (decoded, decoded_config) = decode(&bytes).unwrap();
        decoded.check_invariants();
        assert_eq!(decoded.groups, state.groups);
        assert_eq!(encode(&decoded, &decoded_config), bytes);
    }

    #[test]
    fn a_member_listed_twice_is_malformed() {
        let (mut state, config) = trained();
        let table = &mut state.tables[0][0];
        table.members.push(table.members[0]);
        let msg = malformed(&state, &config);
        assert!(msg.contains("group 0 table 0 lists member") && msg.contains("twice"), "{msg}");
    }

    #[test]
    fn a_seated_item_missing_from_every_member_list_is_malformed() {
        let (mut state, config) = trained();
        let t = state.tables[0].iter().position(|t| t.members.len() >= 2).unwrap();
        let dropped = state.tables[0][t].members.pop().unwrap();
        let msg = malformed(&state, &config);
        assert_eq!(msg, format!("group 0 item {dropped} is not among table {t}'s members"));
    }

    #[test]
    fn a_member_index_out_of_range_is_malformed() {
        let (mut state, config) = trained();
        let len = state.groups[1].len();
        state.tables[1][0].members.push(len + 3);
        let msg = malformed(&state, &config);
        let want = format!("group 1 table 0 lists member {} that is not seated there", len + 3);
        assert_eq!(msg, want);
    }

    #[test]
    fn a_non_finite_coordinate_names_its_group_and_point() {
        let (mut state, config) = trained();
        let mut flat = state.groups[1].as_flat().to_vec();
        flat[5 * 2 + 1] = f64::NAN;
        let len = state.groups[1].len();
        state.groups[1] = Arc::new(Points::from_flat(2, len, flat));
        let msg = malformed(&state, &config);
        assert_eq!(msg, "group 1 point 5 has a non-finite coordinate");
    }
}
