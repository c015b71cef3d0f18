"""Data substrate: schemas, networks, and the two storage models."""

from .edgetable import EdgeTable, lhs_column, rhs_column, split_column
from .network import NetworkError, SocialNetwork
from .schema import NULL, Attribute, Schema, SchemaError
from .store import CompactStore, SharedStoreHandle, attach_shared_store

__all__ = [
    "Attribute",
    "CompactStore",
    "SharedStoreHandle",
    "attach_shared_store",
    "EdgeTable",
    "NetworkError",
    "NULL",
    "Schema",
    "SchemaError",
    "SocialNetwork",
    "lhs_column",
    "rhs_column",
    "split_column",
]
