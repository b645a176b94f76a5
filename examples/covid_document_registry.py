"""E-notarisation scenario: a COVID-19 research document registry.

Models the paper's motivating application (Section I): an institution
notarises research documents on a hybrid-storage blockchain so that
third parties can later retrieve them by keyword with integrity
guarantees, even though the documents themselves live with an untrusted
storage provider.

The scenario demonstrates:

* streaming ingestion with per-document gas receipts;
* conjunctive, disjunctive, and non-existing-keyword queries;
* detection of a *tampering* storage provider: the SP's response
  carries a corrupted document, and the client refuses it.

Run with::

    python examples/covid_document_registry.py
"""

from repro import DataObject, HybridStorageSystem, VerificationError
from repro.ethereum.gas import gas_to_usd
from repro.sp.protocol import QueryResponse, RemoteClient, StorageProviderServer

CORPUS = [
    (("covid-19", "epidemiology", "wuhan"), b"Early outbreak dynamics"),
    (("covid-19", "symptom", "fever"), b"Clinical features of 99 cases"),
    (("sars-cov-2", "genome", "phylogenetics"), b"Genomic characterisation"),
    (("covid-19", "vaccine", "mrna"), b"mRNA-1273 phase 1 results"),
    (("covid-19", "vaccine", "adenovirus"), b"ChAdOx1 interim analysis"),
    (("sars-cov-2", "spike", "structure"), b"Cryo-EM spike structure"),
    (("covid-19", "symptom", "anosmia"), b"Smell loss prevalence study"),
    (("covid-19", "transmission", "aerosol"), b"Airborne transmission review"),
    (("sars-cov-2", "vaccine", "neutralisation"), b"Antibody response panel"),
    (("covid-19", "longcovid", "symptom"), b"Post-acute sequelae cohort"),
]


def main() -> None:
    registry = HybridStorageSystem(scheme="ci*", seed=2021)

    print("Notarising research documents:")
    total_gas = 0
    for object_id, (keywords, content) in enumerate(CORPUS, start=1):
        report = registry.add_object(DataObject(object_id, keywords, content))
        total_gas += report.gas
    print(
        f"  {len(CORPUS)} documents notarised, "
        f"{total_gas:,} gas (US${gas_to_usd(total_gas):.4f}) total"
    )

    queries = [
        "covid-19 AND vaccine",
        "covid-19 AND symptom",
        '("sars-cov-2" AND vaccine) OR ("covid-19" AND vaccine)',
        "covid-19 AND remdesivir",  # keyword never notarised
    ]
    print("\nAuthenticated keyword search:")
    for text in queries:
        result = registry.query(text)
        titles = [
            result.objects[oid].content.decode() for oid in result.result_ids
        ]
        print(f"  {text}")
        print(f"    -> {result.result_ids} {titles}")

    # --- A malicious SP serves a tampered document -------------------------
    print("\nTamper detection:")
    server = StorageProviderServer(registry)

    def tampering_sp(request: bytes) -> bytes:
        response = QueryResponse.decode(server.handle(request))
        genuine = response.objects[0]
        response.objects[0] = DataObject(
            genuine.object_id, genuine.keywords, b"FABRICATED RESULTS"
        )
        return response.encode()

    try:
        RemoteClient(tampering_sp, registry).query("covid-19 AND vaccine")
        print("  !!! tampered answer accepted (this must never happen)")
    except VerificationError as exc:
        print(f"  tampered answer rejected: {exc}")

if __name__ == "__main__":
    main()
