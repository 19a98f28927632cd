//! Facade smoke test: the `txstat` crate re-exports every subsystem under
//! stable module names.

#[test]
fn facade_reexports_every_subsystem() {
    // types
    let t = txstat::types::time::ChainTime::from_ymd(2019, 10, 1);
    assert_eq!(t.date_string(), "2019-10-01");
    // eos
    assert_eq!(
        txstat::eos::Name::new("eosio.token").to_string_repr(),
        "eosio.token"
    );
    // tezos
    assert!(txstat::tezos::Address::implicit(1)
        .to_string()
        .starts_with("tz1"));
    // xrp
    assert!(txstat::xrp::AccountId(42).to_string().starts_with('r'));
    // workload
    let sc = txstat::workload::Scenario::small(1);
    assert!(sc.period.days() > 0.0);
    // netsim
    let profile = txstat::netsim::EndpointProfile::generous("x", 1);
    assert_eq!(profile.name, "x");
    // crawler
    let cfg = txstat::crawler::ClientConfig::default();
    assert!(cfg.max_retries > 0);
    // core
    let cluster = txstat::core::ClusterInfo::new();
    assert!(cluster.entity(txstat::xrp::AccountId(1)).is_none());
    // reports
    let opts = txstat::reports::CrawlOptions::paper();
    assert_eq!((opts.eos_advertised, opts.eos_shortlisted), (32, 6));
}

#[test]
fn paper_window_constants_are_consistent() {
    let paper = txstat::workload::Scenario::paper(1);
    assert_eq!(paper.period.start.date_string(), "2019-10-01");
    assert_eq!(paper.period.end.date_string(), "2020-01-01");
    assert!(paper.period.contains(txstat::workload::eidos_launch()));
}
