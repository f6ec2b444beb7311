"""OpenAPI round-trip: the published contract IS the mounted route table.

``GET /v1/openapi.json`` is generated from :data:`repro.service.app.ROUTES`
— the same table the dispatcher runs on — so these tests pin the
round-trip in both directions: every mounted route appears in the
document, and every documented operation corresponds to a mounted
route.  They also pin the canonical-bytes property (two daemons of the
same build serve identical descriptions) and that every ``$ref``
resolves inside ``components.schemas``.
"""

from __future__ import annotations

import json

from repro.core.artifacts import artifact_json_bytes, artifact_names
from repro.service.app import ROUTES, App
from repro.service.dist.protocol import DIST_PROTOCOL_VERSION, DIST_SCHEMAS
from repro.service.http import Request
from repro.service.jobs import JobManager, JobResult
from repro.service.openapi import openapi_document


def make_app() -> App:
    return App(JobManager(lambda job: JobResult()), execution="process")


def collect_refs(node) -> set[str]:
    refs: set[str] = set()
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref":
                refs.add(value)
            else:
                refs |= collect_refs(value)
    elif isinstance(node, list):
        for item in node:
            refs |= collect_refs(item)
    return refs


class TestRoundTrip:
    def test_every_mounted_route_is_documented(self):
        document = openapi_document(ROUTES)
        for route in ROUTES:
            operations = document["paths"].get(route.pattern)
            assert operations is not None, route.pattern
            assert route.method.lower() in operations, route.pattern

    def test_every_documented_operation_is_mounted(self):
        document = openapi_document(ROUTES)
        mounted = {(route.method.lower(), route.pattern) for route in ROUTES}
        documented = {
            (method, pattern)
            for pattern, operations in document["paths"].items()
            for method in operations
        }
        assert documented == mounted

    def test_dist_routes_are_part_of_the_contract(self):
        document = openapi_document(ROUTES)
        dist_paths = [
            path for path in document["paths"] if path.startswith("/v1/dist/")
        ]
        assert "/v1/dist/workers" in dist_paths
        assert "/v1/dist/leases" in dist_paths
        assert document["info"]["x-dist-protocol"] == DIST_PROTOCOL_VERSION

    def test_operation_ids_are_unique(self):
        document = openapi_document(ROUTES)
        ids = [
            operation["operationId"]
            for operations in document["paths"].values()
            for operation in operations.values()
        ]
        assert len(ids) == len(set(ids))

    def test_path_parameters_are_declared(self):
        document = openapi_document(ROUTES)
        operation = document["paths"]["/v1/jobs/{job_id}/artifacts/{name}"][
            "get"
        ]
        declared = [param["name"] for param in operation["parameters"]]
        assert declared == ["job_id", "name"]


class TestComponents:
    def test_every_ref_resolves(self):
        document = openapi_document(ROUTES)
        schemas = document["components"]["schemas"]
        for ref in collect_refs(document["paths"]):
            prefix, _, name = ref.rpartition("/")
            assert prefix == "#/components/schemas"
            assert name in schemas, ref

    def test_artifact_and_dist_schemas_are_republished(self):
        schemas = openapi_document(ROUTES)["components"]["schemas"]
        for name in artifact_names():
            assert f"artifact.{name}" in schemas
        for name in DIST_SCHEMAS:
            assert f"dist.{name}" in schemas
        assert "artifact_envelope" in schemas
        assert "error" in schemas


class TestServedDocument:
    def test_handler_serves_canonical_bytes(self):
        app = make_app()
        first = app.handle(Request(method="GET", path="/v1/openapi.json"))
        second = app.handle(Request(method="GET", path="/v1/openapi.json"))
        assert first.status == 200
        assert first.body == second.body  # cached, not re-encoded
        assert first.body == artifact_json_bytes(openapi_document(ROUTES))
        assert json.loads(first.body)["openapi"] == "3.0.3"

    def test_two_apps_serve_identical_documents(self):
        assert (
            make_app()
            .handle(Request(method="GET", path="/v1/openapi.json"))
            .body
            == make_app()
            .handle(Request(method="GET", path="/v1/openapi.json"))
            .body
        )
