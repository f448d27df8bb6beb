"""Calibrated network curves for the two paths.

Walks the analytic models end to end: solve the constants from the
shipped anchor table, then sweep message sizes and node counts to show
where the user-space relay path pays and where it catches up.
"""

from convergesim import netmodel

net = netmodel.load_network()
bypass, tap = net.os_bypass, net.tap_relay

print("solved constants")
for p in (bypass, tap):
    print(f"  {p.path:10s} L0={p.l0_s * 1e6:8.3f} us   "
          f"BW_inf={p.bw_inf_Bps / 1e9:8.3f} GB/s   m_half={p.m_half_B:9.1f} B   "
          f"barrier(4)={p.barrier_base_4node_s * 1e6:7.2f} us")

print("\npoint-to-point latency (us)")
print(f"  {'bytes':>9s} {'bypass':>10s} {'tap':>10s} {'ratio':>7s}")
m = 1
while m <= netmodel.MIB_4:
    a = netmodel.p2p_latency(bypass, m) * 1e6
    b = netmodel.p2p_latency(tap, m) * 1e6
    print(f"  {m:9d} {a:10.2f} {b:10.2f} {b / a:7.2f}")
    m *= 64

print("\nbandwidth (MB/s): the small-message gap closes by 4 MiB")
m = 1
while m <= netmodel.MIB_4:
    a = netmodel.p2p_bandwidth(bypass, m) / 1e6
    b = netmodel.p2p_bandwidth(tap, m) / 1e6
    print(f"  {m:9d} {a:12.1f} {b:12.1f}  ({100 * (a - b) / a:5.2f}% lower)")
    m *= 64

print("\nbarrier time (us) with and without a background user-space cluster")
print(f"  {'nodes':>5s} {'bypass':>9s} {'bypass+bg':>10s} {'tap':>9s}")
for p in (2, 4, 8, 16, 32):
    print(f"  {p:5d} {netmodel.barrier_time(bypass, p) * 1e6:9.2f} "
          f"{netmodel.barrier_time(bypass, p, background=True) * 1e6:10.2f} "
          f"{netmodel.barrier_time(tap, p) * 1e6:9.2f}")

print("\nallreduce multiplier of the relay path over the bypass baseline")
print(f"  {'bytes':>9s} {'4 nodes':>8s} {'8':>6s} {'16':>6s} {'32 nodes':>9s}")
m = 4
while m <= netmodel.MIB_4:
    row = [netmodel.allreduce_mu(tap, m, p) for p in (4, 8, 16, 32)]
    print(f"  {m:9d} {row[0]:8.2f} {row[1]:6.2f} {row[2]:6.2f} {row[3]:9.2f}")
    m *= 16

eth = netmodel.pre_efa_ethernet(tap)
print("\npure-ethernet relay preset (no bypass NIC): 4 MiB bandwidth "
      f"{netmodel.p2p_bandwidth(eth, netmodel.MIB_4) / 1e6:.0f} MB/s vs "
      f"{netmodel.p2p_bandwidth(bypass, netmodel.MIB_4) / 1e6:.0f} MB/s")
