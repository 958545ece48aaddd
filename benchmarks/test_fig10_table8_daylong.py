"""Figure 10 and Table 8: a (time-compressed) day in a lossy office."""

from conftest import paper, print_table

from repro.experiments.exp_app import table8_row


def test_fig10_daylong_duty_cycle():
    results = {"tcp": paper("fig10_daylong_tcp"),
               "coap": paper("fig10_daylong_coap")}
    print_table(
        "Figure 10: hourly radio duty cycle (diurnal interference)",
        ["Hour", "Loss", "TCPlp radio DC (%)", "CoAP radio DC (%)"],
        [[h["hour"], h["loss_rate"], h["radio_dc"] * 100,
          results["coap"][i]["radio_dc"] * 100]
         for i, h in enumerate(results["tcp"])],
    )
    tcp, coap = results["tcp"], results["coap"]
    # daytime (working hours) duty cycle exceeds night for both
    def mean_dc(rows, hours):
        sel = [r["radio_dc"] for r in rows if r["hour"] in hours]
        return sum(sel) / len(sel)

    night = set(range(0, 6))
    day = set(range(9, 17))
    assert mean_dc(tcp, day) > mean_dc(tcp, night)
    assert mean_dc(coap, day) > mean_dc(coap, night)
    # CoAP holds an edge at night (less interference); the protocols
    # are comparable overall (Table 8: 2.29% vs 1.84%)
    assert mean_dc(coap, night) < mean_dc(tcp, night)
    assert mean_dc(tcp, day) < 4 * mean_dc(coap, day)


def test_table8_day_averages():
    # the reliable rows are the first 12 hours of Fig. 10's days; the
    # table8 entry simulates the two unreliable days
    rows = [table8_row("tcp", paper("fig10_daylong_tcp")),
            table8_row("coap", paper("fig10_daylong_coap"))] + paper("table8")
    print_table(
        "Table 8: day-long averages (paper: TCPlp 99.3%/2.29%, CoAP "
        "99.5%/1.84%, unreliable 93-95%/0.7-1.1%)",
        ["Protocol", "Reliability", "Radio DC (%)", "CPU DC (%)"],
        [[r["protocol"], r["reliability"], r["radio_dc"] * 100,
          r["cpu_dc"] * 100] for r in rows],
    )
    by_proto = {r["protocol"]: r for r in rows}
    # reliable transports deliver ~everything despite the diurnal loss
    # (the run's delivered / (generated - still queued at the end), so
    # a batch straddling the end is not a loss); unreliable
    # (nonconfirmable) rows eat the raw loss rate
    assert by_proto["tcp"]["reliability"] > 0.98
    assert by_proto["coap"]["reliability"] > 0.98
    assert by_proto["unreliable+batch"]["reliability"] < (
        by_proto["coap"]["reliability"]
    )
    assert by_proto["unreliable+batch"]["reliability"] < 0.98
    # §9.6: with batching on both sides, reliability costs roughly
    # 2-4x the duty cycle of the unreliable alternative
    assert by_proto["coap"]["radio_dc"] > 1.5 * by_proto["unreliable+batch"]["radio_dc"]
    assert by_proto["tcp"]["radio_dc"] > 1.5 * by_proto["unreliable+batch"]["radio_dc"]
