"""Quickstart: store documents, search them, verify the results.

Runs the full hybrid-storage pipeline with the Chameleon^inv* index (the
paper's best scheme): the data owner streams objects, the blockchain
meters every maintenance transaction under the Ethereum gas model, the
storage provider answers a keyword query with a verification object,
and the client checks soundness and completeness against the on-chain
digests.

Run with::

    python examples/quickstart.py
"""

from repro import DataObject, HybridStorageSystem
from repro.ethereum.gas import gas_to_usd


def main() -> None:
    # A hybrid-storage blockchain using the Chameleon^inv* ADS.
    system = HybridStorageSystem(scheme="ci*", seed=42)

    documents = [
        DataObject(1, ("covid-19", "sars-cov-2"), b"Genome comparison study"),
        DataObject(2, ("covid-19",), b"Case report, Hong Kong"),
        DataObject(3, ("sars-cov-2",), b"Spike protein analysis"),
        DataObject(4, ("covid-19", "symptom", "vaccine"), b"Phase-3 trial"),
        DataObject(5, ("covid-19", "vaccine"), b"mRNA stability data"),
        DataObject(6, ("symptom",), b"Anosmia survey"),
        DataObject(7, ("covid-19",), b"Transmission model"),
        DataObject(8, ("covid-19", "vaccine"), b"Cold-chain logistics"),
    ]

    print("Ingesting documents (DO -> SP raw data, DO -> chain meta-data):")
    for doc in documents:
        report = system.add_object(doc)
        print(
            f"  object {doc.object_id}: {report.gas:>7,} gas "
            f"(US${gas_to_usd(report.gas):.4f}) across "
            f"{len(report.receipts)} tx"
        )

    query_text = '("covid-19" AND vaccine) OR ("sars-cov-2" AND vaccine)'
    print(f"\nQuery: {query_text}")
    # The client checks the SP's answer against the chain; any failed
    # check raises VerificationError, so a returned result is verified.
    result = system.query(query_text)

    print(f"  results:  {result.result_ids}")
    for oid in result.result_ids:
        print(f"    #{oid}: {result.objects[oid].content.decode()}")
    print(f"  VO size:  {result.vo_total_bytes:,} bytes "
          f"(SP {result.vo_sp_bytes:,} + chain {result.vo_chain_bytes:,})")
    print(f"  SP time:  {1e3 * result.sp_seconds:.2f} ms, "
          f"client verify: {1e3 * result.verify_seconds:.2f} ms")

    meter = system.maintenance_meter()
    print(
        f"\nTotal maintenance gas: {meter.total:,} "
        f"(US${gas_to_usd(meter.total):.4f}); chain height "
        f"{system.chain.height}, linkage ok: {system.chain.verify_chain()}"
    )


if __name__ == "__main__":
    main()
